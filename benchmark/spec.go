package main

import "time"

// runSeconds is BENCHMARK.json's run_seconds: the measured window the
// bounds were calibrated at.
const runSeconds = 15

// A workload is one named set of inputs. Names are stable: later
// issues cite them, and BENCHMARK.json lists exactly these.
type workload struct {
	Name string
	Kind string // "train" or "serve"
	Why  string

	// Train workloads.
	Mapped       bool // BuildCorpusCache+OpenMappedCorpus instead of ReadUCI
	Threaded     bool // Threads = C instead of 1
	CkptEvery    int  // 0 = no checkpoints
	QualityIter  int  // iteration whose log-likelihood is nll_per_token
	TargetLL     float64
	TargetLLTiny float64
	FloorLL      float64 // log-likelihood per token below this is a failed check

	// Serve workloads.
	Batch   bool // 100% multi-document infer requests
	Refresh bool // a writer publishes deltas beside the reads
}

// The five workloads. The why strings are BENCHMARK.json's.
var workloads = []workload{
	{
		Name: "train-nyt-serial", Kind: "train",
		Why:         "long documents, K=256, one thread, no checkpoints: core's two sweeps with dense row counters do nearly all the work",
		QualityIter: 14, TargetLL: -11.60, TargetLLTiny: -11.5, FloorLL: -13,
	},
	{
		Name: "train-zipf-threaded", Kind: "train",
		Why:    "short documents, K=4096, C threads, mmap corpus, sharded checkpoints: hash counters, heavy columns, lane merge, fsio stalls",
		Mapped: true, Threaded: true, CkptEvery: 10,
		QualityIter: 20, TargetLL: -13.95, TargetLLTiny: -13.5, FloorLL: -16,
	},
	{
		Name: "serve-singles", Kind: "serve",
		Why: "closed loop of single-document infers plus analytics pages: HTTP, batcher linger, gate, registry, JSON; engine is a small share",
	},
	{
		Name: "serve-batch", Kind: "serve", Batch: true,
		Why: "closed loop of 16x256-token infer requests that bypass the coalescer: engine fold-in and the worker pool do nearly all the work",
	},
	{
		Name: "serve-refresh", Kind: "serve", Refresh: true,
		Why: "the serve-singles request sequence while a writer publishes deltas and rebases: fold and hot-swap compete with reads",
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// A scale sizes every workload. "full" is what the driver runs and
// what the bounds in BENCHMARK.json were calibrated on; "tiny" keeps
// the smoke test under 20 s and carries no performance meaning.
type scale struct {
	Name string

	NYTScale float64 // corpus.NYTimesLike factor for train-nyt-serial
	NYTK     int

	ZipfD, ZipfV, ZipfK int

	// The served model: trained on NYTimesLike(ServeScale) for
	// ServeIters iterations at ServeK topics.
	ServeScale float64
	ServeK     int
	ServeIters int
	// A train workload's traced run needs a model for the serve-side
	// layer probes; it trains this much smaller one.
	ProbeScale float64

	BatchDocs, BatchLen int
	Publishes, MaxChain int
	Warmup              time.Duration
	// SetupRepeats is how many times a serve workload starts the server
	// for setup_s (a train workload sets up once per segment).
	SetupRepeats int
	// SchedulePerConn is how many requests are pre-encoded per
	// connection; the closed loop cycles through them.
	SchedulePerConn int
	// SpinIters sizes the calibration spin around the measured window.
	SpinIters int
}

var scales = map[string]scale{
	"full": {
		Name:     "full",
		NYTScale: 0.01, NYTK: 256,
		ZipfD: 20000, ZipfV: 30000, ZipfK: 4096,
		ServeScale: 0.005, ServeK: 256, ServeIters: 20, ProbeScale: 0.002,
		BatchDocs: 16, BatchLen: 256,
		Publishes: 18, MaxChain: 8,
		Warmup: time.Second, SetupRepeats: 5, SchedulePerConn: 2048, SpinIters: 100_000_000,
	},
	"tiny": {
		Name:     "tiny",
		NYTScale: 0.0005, NYTK: 32,
		ZipfD: 1500, ZipfV: 2000, ZipfK: 1280,
		ServeScale: 0.0005, ServeK: 32, ServeIters: 6, ProbeScale: 0.0005,
		BatchDocs: 4, BatchLen: 64,
		Publishes: 5, MaxChain: 2,
		Warmup: 100 * time.Millisecond, SetupRepeats: 2, SchedulePerConn: 256, SpinIters: 5_000_000,
	},
}

// A metricDef names one metric. End-to-end metrics carry the bound
// BENCHMARK.json fixes; per-layer metrics carry the end-to-end metric
// and workloads they should move (on every other workload the
// prediction is no change).
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64  // end-to-end only
	Moves  string   // per-layer only: an end-to-end metric name
	On     []string // per-layer only: workload names
}

// Bounds. Every timing and the server's peak memory get the 0.25 the
// driver allows at most: ten runs on ten seeds spread (distance
// between quartiles over median) by up to 8% in a quiet hour, the
// machine drifts by a tenth between one quarter of an hour and the
// next, and three times the spread is the rule (README.md has the
// table). nll_per_token repeats exactly for a seed and spreads by
// 0.7% across seeds.
var endToEnd = []metricDef{
	{Name: "tokens_per_s", Unit: "tokens/s", Better: "higher", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "op_tail_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "nll_per_token", Unit: "nats/token", Better: "lower", Bound: 0.03},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

var (
	trainBoth     = []string{"train-nyt-serial", "train-zipf-threaded"}
	trainNYT      = []string{"train-nyt-serial"}
	trainZipf     = []string{"train-zipf-threaded"}
	trainAndBatch = []string{"train-nyt-serial", "train-zipf-threaded", "serve-batch"}
	serveAll      = []string{"serve-singles", "serve-batch", "serve-refresh"}
	serveFront    = []string{"serve-singles", "serve-refresh"}
	serveBatch    = []string{"serve-batch"}
	serveFresh    = []string{"serve-refresh"}
	everywhere    = []string{"train-nyt-serial", "train-zipf-threaded", "serve-singles", "serve-batch", "serve-refresh"}
)

var perLayer = []metricDef{
	{Name: "rng.uint64_ns", Unit: "ns", Better: "lower", Moves: "tokens_per_s", On: trainAndBatch},
	{Name: "rng.intn_ns", Unit: "ns", Better: "lower", Moves: "tokens_per_s", On: trainAndBatch},

	{Name: "alias.sparse_build_ns_per_outcome", Unit: "ns", Better: "lower", Moves: "tokens_per_s", On: trainZipf},
	{Name: "alias.sparse_draw_ns", Unit: "ns", Better: "lower", Moves: "tokens_per_s", On: trainBoth},
	{Name: "alias.dense_build_ns_per_topic", Unit: "ns", Better: "lower", Moves: "setup_s", On: serveAll},
	{Name: "alias.dense_draw_ns", Unit: "ns", Better: "lower", Moves: "tokens_per_s", On: serveBatch},

	{Name: "tcount.dense_cycle_ns_per_token", Unit: "ns", Better: "lower", Moves: "tokens_per_s", On: trainNYT},
	{Name: "tcount.hash_cycle_ns_per_token", Unit: "ns", Better: "lower", Moves: "tokens_per_s", On: trainZipf},

	{Name: "sparse.freeze_ms", Unit: "ms", Better: "lower", Moves: "setup_s", On: trainBoth},
	{Name: "sparse.col_sweep_ns_per_token", Unit: "ns", Better: "lower", Moves: "tokens_per_s", On: trainBoth},
	{Name: "sparse.row_sweep_ns_per_token", Unit: "ns", Better: "lower", Moves: "tokens_per_s", On: trainBoth},

	{Name: "corpus.read_uci_ms", Unit: "ms", Better: "lower", Moves: "setup_s", On: trainNYT},
	{Name: "corpus.build_cache_ms", Unit: "ms", Better: "lower", Moves: "setup_s", On: trainZipf},
	{Name: "corpus.open_mapped_ms", Unit: "ms", Better: "lower", Moves: "setup_s", On: trainZipf},

	{Name: "core.new_ms", Unit: "ms", Better: "lower", Moves: "setup_s", On: trainBoth},
	{Name: "core.iterate_ns_per_token_p50", Unit: "ns", Better: "lower", Moves: "tokens_per_s", On: trainBoth},
	{Name: "core.iterate_ns_per_token_p90", Unit: "ns", Better: "lower", Moves: "op_tail_ms", On: trainBoth},
	{Name: "core.sweep_floor_ratio", Unit: "ratio", Better: "lower", Moves: "tokens_per_s", On: trainBoth},
	{Name: "core.thread_speedup", Unit: "ratio", Better: "higher", Moves: "tokens_per_s", On: trainZipf},
	{Name: "core.state_bytes_per_token", Unit: "bytes", Better: "lower", Moves: "peak_rss_mb", On: trainBoth},

	{Name: "eval.loglik_ms", Unit: "ms", Better: "lower", Moves: "ops_per_s", On: trainBoth},

	{Name: "train.ckpt_write_ms", Unit: "ms", Better: "lower", Moves: "op_tail_ms", On: trainZipf},
	{Name: "train.ckpt_bytes", Unit: "bytes", Better: "lower", Moves: "op_tail_ms", On: trainZipf},
	{Name: "train.ckpt_stall_share", Unit: "share", Better: "lower", Moves: "ops_per_s", On: trainZipf},
	{Name: "train.eval_share", Unit: "share", Better: "lower", Moves: "ops_per_s", On: trainBoth},
	{Name: "train.loop_overhead_share", Unit: "share", Better: "lower", Moves: "ops_per_s", On: trainBoth},
	{Name: "train.iters_to_ll", Unit: "count", Better: "lower", Moves: "nll_per_token", On: trainBoth},

	{Name: "fsio.atomic_write_mb_per_s", Unit: "MiB/s", Better: "higher", Moves: "op_tail_ms", On: trainZipf},
	{Name: "fsio.diff_counts_ms", Unit: "ms", Better: "lower", Moves: "op_tail_ms", On: serveFresh},
	{Name: "fsio.delta_write_ms", Unit: "ms", Better: "lower", Moves: "op_tail_ms", On: serveFresh},
	{Name: "fsio.delta_read_ms", Unit: "ms", Better: "lower", Moves: "op_tail_ms", On: serveFresh},
	{Name: "fsio.delta_cells", Unit: "count", Better: "lower", Moves: "op_tail_ms", On: serveFresh},

	{Name: "model.write_ms", Unit: "ms", Better: "lower", Moves: "op_tail_ms", On: serveFresh},
	{Name: "model.read_ms", Unit: "ms", Better: "lower", Moves: "setup_s", On: serveAll},
	{Name: "model.bytes", Unit: "bytes", Better: "lower", Moves: "setup_s", On: serveAll},

	{Name: "infer.engine_build_ms", Unit: "ms", Better: "lower", Moves: "setup_s", On: serveAll},
	{Name: "infer.engine_bytes", Unit: "bytes", Better: "lower", Moves: "peak_rss_mb", On: serveAll},
	{Name: "infer.ns_per_token_sweep", Unit: "ns", Better: "lower", Moves: "tokens_per_s", On: serveBatch},
	{Name: "infer.batch_tokens_per_s", Unit: "tokens/s", Better: "higher", Moves: "tokens_per_s", On: serveBatch},
	{Name: "infer.allocs_per_infer", Unit: "count", Better: "lower", Moves: "op_p50_ms", On: serveBatch},
	{Name: "infer.apply_delta_ms", Unit: "ms", Better: "lower", Moves: "op_tail_ms", On: serveFresh},
	{Name: "infer.words_rebuilt_share", Unit: "share", Better: "lower", Moves: "op_tail_ms", On: serveFresh},

	{Name: "batcher.solo_do_us", Unit: "us", Better: "lower", Moves: "op_p50_ms", On: serveFront},
	{Name: "batcher.docs_per_dispatch", Unit: "ratio", Better: "higher", Moves: "ops_per_s", On: serveFront},
	{Name: "batcher.shed_share", Unit: "share", Better: "lower", Moves: "ops_per_s", On: serveFront},
	{Name: "gate.enter_ns", Unit: "ns", Better: "lower", Moves: "ops_per_s", On: serveFront},

	{Name: "registry.cold_load_ms", Unit: "ms", Better: "lower", Moves: "setup_s", On: serveAll},
	{Name: "registry.acquire_ns", Unit: "ns", Better: "lower", Moves: "op_p50_ms", On: serveFront},
	{Name: "registry.fold_share", Unit: "share", Better: "lower", Moves: "op_tail_ms", On: serveFresh},
	{Name: "registry.deltas_applied", Unit: "count", Better: "higher", Moves: "op_tail_ms", On: serveFresh},
	{Name: "registry.delta_rejected", Unit: "count", Better: "lower", Moves: "op_tail_ms", On: serveFresh},
	{Name: "registry.words_rebuilt", Unit: "count", Better: "lower", Moves: "op_tail_ms", On: serveFresh},

	{Name: "query.topwords_page_us", Unit: "us", Better: "lower", Moves: "ops_per_s", On: serveFront},
	{Name: "query.vocab_page_us", Unit: "us", Better: "lower", Moves: "ops_per_s", On: serveFront},

	{Name: "serve.http_gap_share", Unit: "share", Better: "lower", Moves: "op_p50_ms", On: serveFront},
	{Name: "serve.engine_share", Unit: "share", Better: "lower", Moves: "op_p50_ms", On: serveAll},
	{Name: "serve.query_over_infer_p50", Unit: "ratio", Better: "lower", Moves: "ops_per_s", On: serveFront},

	{Name: "process.cpu_us_per_token", Unit: "us/token", Better: "lower", Moves: "tokens_per_s", On: everywhere},

	{Name: "trace.overhead_share", Unit: "share", Better: "lower", Moves: "tokens_per_s", On: everywhere},
}
