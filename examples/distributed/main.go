// Distributed: train WarpLDA sharded over 16 workers as in the paper's
// Section 5.3 and inspect the cost model of that topology — load balance
// of the greedy partitioner, alltoall volume, and the modeled iteration
// time with compute/communication overlap on two networks.
//
// This example uses internal packages, which is possible because it
// lives inside the module; it demonstrates the distributed substrate the
// Figure 6 / Figure 9 experiments are built on.
//
//	go run ./examples/distributed
package main

import (
	"fmt"
	"log"
	"time"

	"warplda/internal/cluster"
	"warplda/internal/corpus"
	"warplda/internal/sampler"
)

func main() {
	c, err := corpus.GenerateLDA(corpus.SyntheticConfig{
		D: 2000, V: 2500, K: 20, MeanLen: 100, Alpha: 0.1, Beta: 0.01, Seed: 5,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("corpus: %s\n", c.Stats())

	cfg := sampler.PaperDefaults(50)
	cfg.M = 2

	// The per-token cost of one phase, measured on one worker after a
	// warm-up iteration: each iteration samples every token twice.
	one, err := cluster.NewDistributed(c, cfg, 1)
	if err != nil {
		log.Fatal(err)
	}
	one.Iterate()
	start := time.Now()
	one.Iterate()
	cost := time.Since(start).Seconds() / float64(2*c.NumTokens())
	fmt.Printf("per-phase token cost: %.1f ns\n", cost*1e9)

	sharded, err := cluster.NewDistributed(c, cfg, 16)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-11s %12s %12s %12s %10s %10s\n",
		"network", "compute(s)", "comm(s)", "modeled(s)", "MB moved", "imbalance")
	for _, n := range []struct {
		name string
		net  cluster.NetworkModel
	}{{"InfiniBand", cluster.InfiniBand()}, {"Gigabit", cluster.Gigabit()}} {
		st := sharded.Model(cost, n.net)
		fmt.Printf("%-11s %12.6f %12.6f %12.6f %10.2f %10.4f\n",
			n.name, st.ComputeSeconds, st.CommSeconds, st.ModeledSeconds,
			float64(st.BytesMoved)/1e6, st.Imbalance)
	}

	step := sharded.Model(cost, cluster.InfiniBand()).ModeledSeconds
	fmt.Printf("%4s %14s %16s\n", "iter", "logLik", "modeled time(s)")
	for it := 1; it <= 10; it++ {
		sharded.Iterate()
		ll := sampler.LogJoint(c, sharded.Assignments(), cfg)
		fmt.Printf("%4d %14.4e %16.6f\n", it, ll, float64(it)*step)
	}
}
