// Serving: the full production loop — train a model, save it in the
// checksummed snapshot format, reload it (as warplda-serve's registry
// does on every load and hot reload), build the batched inference
// engine once, and answer query batches.
//
//	go run ./examples/serving
//
// The same model file works over HTTP, alone or as one tenant of a
// multi-model registry directory:
//
//	go run ./cmd/warplda-serve -model model.bin &
//	curl -s localhost:8080/v1/infer -d '{"docs": [[0, 5, 7, 5]]}'
//	curl -s localhost:8080/v1/models
package main

import (
	"bytes"
	"fmt"
	"log"
	"time"

	"warplda"
)

func main() {
	// Train on a synthetic corpus with known topic structure.
	c, err := warplda.GenerateLDA(warplda.SyntheticConfig{
		D: 2000, V: 3000, K: 20, MeanLen: 100, Alpha: 0.1, Beta: 0.01, Seed: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	train, queries := warplda.Split(c, 0.1, 7)
	fmt.Printf("train: %s\n", train.Stats())

	model, err := warplda.Train(train, warplda.Defaults(20), 100)
	if err != nil {
		log.Fatal(err)
	}

	// Snapshot round trip — in production this is a file on disk
	// (warplda-train -save / warplda-serve -model).
	var snapshot bytes.Buffer
	size, err := model.WriteTo(&snapshot)
	if err != nil {
		log.Fatal(err)
	}
	served, err := warplda.ReadModel(&snapshot)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("snapshot: %d bytes, V=%d K=%d\n", size, served.V, served.Cfg.K)

	// Build the engine once: per-word alias tables over Φ̂ are
	// precomputed here and amortized over every query batch.
	engine, err := warplda.NewInferEngine(served, warplda.InferOptions{})
	if err != nil {
		log.Fatal(err)
	}

	// Answer a batch of unseen documents.
	batch := queries.Docs
	start := time.Now()
	thetas, err := engine.InferBatch(batch, 20, 42)
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)
	fmt.Printf("inferred %d unseen docs in %v (%.0f docs/s)\n",
		len(batch), elapsed.Round(time.Millisecond),
		float64(len(batch))/elapsed.Seconds())

	for i := 0; i < 3 && i < len(thetas); i++ {
		best, bestP := 0, 0.0
		for k, p := range thetas[i] {
			if p > bestP {
				best, bestP = k, p
			}
		}
		fmt.Printf("query doc %d (%3d tokens): topic %2d (p=%.2f)\n",
			i, len(batch[i]), best, bestP)
	}
}
