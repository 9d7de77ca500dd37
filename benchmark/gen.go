package main

// Everything the program under test sees is made here from -seed: the
// corpora, the served model and the request schedule. The same seed
// gives the same bytes; gen_test.go pins that.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"strconv"

	"warplda"
	"warplda/internal/corpus"
	"warplda/internal/rng"
)

// Salts keep the streams drawn from one -seed independent.
const (
	saltNYT = iota + 1
	saltZipf
	saltServeCorpus
	saltTrain
	saltSchedule
	saltProbe
)

func derive(seed uint64, salts ...uint64) uint64 { return rng.Derive(seed, salts...).Uint64() }

func nytConfig(seed uint64, factor float64, salt uint64) corpus.SyntheticConfig {
	cfg := corpus.NYTimesLike(factor)
	cfg.Seed = derive(seed, salt)
	return cfg
}

// writeTrainCorpus streams a train workload's corpus to path as UCI
// in O(1) memory, so fixture generation never shows in peak_rss_mb.
func writeTrainCorpus(w workload, sc scale, seed uint64, path string) (st corpus.Stats, err error) {
	f, err := os.Create(path)
	if err != nil {
		return st, err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	if w.Mapped {
		return corpus.StreamZipfUCI(f, sc.ZipfD, sc.ZipfV, 60, 1.1, derive(seed, saltZipf))
	}
	return corpus.StreamLDAUCI(f, nytConfig(seed, sc.NYTScale, saltNYT))
}

// trainConfig is the sampler configuration of a train workload.
func trainConfig(w workload, sc scale, seed uint64, threads int) warplda.Config {
	k, m := sc.NYTK, 2
	if w.Mapped {
		k, m = sc.ZipfK, 1
	}
	cfg := warplda.Defaults(k)
	cfg.M = m
	cfg.Seed = derive(seed, saltTrain)
	cfg.Threads = 1
	if w.Threaded {
		cfg.Threads = threads
	}
	return cfg
}

// A request is one pre-encoded HTTP request of a serve schedule.
type request struct {
	Infer  bool
	Path   string
	Body   []byte    // nil for GET
	Docs   [][]int32 // infer only; slices of the fixture corpus
	Tokens int
}

type inferBody struct {
	Docs [][]int32 `json:"docs"`
}

const modelName = "news"

// buildSchedule pre-encodes n requests for one connection. singles:
// 80% single-document infers (16 tokens 70%, 128 tokens 30%) and 20%
// analytics pages (topwords 75%, vocab 25%); batch: BatchDocs
// documents of BatchLen tokens each. Documents are windows of the
// fixture corpus, so word frequencies and co-occurrence are the
// model's own. serve-refresh takes the serve-singles branch: its
// request bytes are serve-singles' for the same seed.
func buildSchedule(w workload, sc scale, seed uint64, conn, n int, c *warplda.Corpus, k int) []request {
	r := rng.Derive(seed, saltSchedule, uint64(conn))
	out := make([]request, 0, n)
	for len(out) < n {
		if w.Batch {
			docs := make([][]int32, sc.BatchDocs)
			for i := range docs {
				docs[i] = corpusWindow(r, c, sc.BatchLen)
			}
			out = append(out, inferRequest(docs))
			continue
		}
		switch u := r.Float64(); {
		case u < 0.80:
			length := 16
			if r.Float64() >= 0.7 {
				length = 128
			}
			out = append(out, inferRequest([][]int32{corpusWindow(r, c, length)}))
		case u < 0.95:
			out = append(out, request{Path: "/v1/models/" + modelName + "/query/topwords?limit=50&topic=" + strconv.Itoa(r.Intn(k))})
		default:
			out = append(out, request{Path: "/v1/models/" + modelName + "/query/vocab?limit=50&prefix=" + strconv.Itoa(1+r.Intn(9))})
		}
	}
	return out
}

// corpusWindow is length consecutive tokens of a random non-empty
// document of c (the whole document when it is shorter).
func corpusWindow(r *rng.RNG, c *warplda.Corpus, length int) []int32 {
	doc := c.Doc(r.Intn(c.NumDocs()))
	for len(doc) == 0 {
		doc = c.Doc(r.Intn(c.NumDocs()))
	}
	if len(doc) <= length {
		return doc
	}
	off := r.Intn(len(doc) - length + 1)
	return doc[off : off+length]
}

func inferRequest(docs [][]int32) request {
	body, err := json.Marshal(inferBody{Docs: docs})
	if err != nil {
		panic(err) // [][]int32 always encodes
	}
	tokens := 0
	for _, d := range docs {
		tokens += len(d)
	}
	return request{Infer: true, Path: "/v1/models/" + modelName + "/infer", Body: body, Docs: docs, Tokens: tokens}
}

// scheduleFingerprint hashes the bytes a schedule puts on the wire.
func scheduleFingerprint(reqs []request) uint64 {
	h := fnv.New64a()
	for _, q := range reqs {
		h.Write([]byte(q.Path))
		h.Write([]byte{0})
		h.Write(q.Body)
		h.Write([]byte{0})
	}
	return h.Sum64()
}

// readUCIFile is the in-memory corpus load train-nyt-serial times.
func readUCIFile(path string) (*warplda.Corpus, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	c, err := warplda.ReadUCI(bufio.NewReaderSize(f, 1<<20))
	if err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	return c, nil
}
