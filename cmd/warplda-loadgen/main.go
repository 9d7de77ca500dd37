// Command warplda-loadgen drives HTTP load against a running
// warplda-serve instance and checks the run against absolute budgets.
// It is the operator's load tool for the end-to-end request path —
// admission queue, request coalescing, engine dispatch, JSON encode —
// under realistic concurrency; performance across commits is measured
// by benchmark/ (see docs/PERFORMANCE.md), not here.
//
// Two load modes:
//
//   - closed (default): -concurrency workers each keep exactly one
//     request in flight; offered load adapts to the server's speed.
//     Stable, the right mode for a latency budget.
//   - open: requests fire at a fixed -rate regardless of completions
//     (in-flight capped at -concurrency; ticks past the cap count as
//     client drops). Shows shedding behavior past saturation.
//
// Documents are synthetic: lengths drawn from the -doc-mix
// distribution, word ids uniform over the target model's vocabulary
// (discovered via GET /models/{name}, or set with -vocab).
// Per-request latency lands in a log-linear histogram (~3% relative
// error, matching the server's own /stats view).
//
// -workload picks the request mix: "infer" (the default) posts
// fold-in documents; "query" exercises the /v1 topic-analytics routes
// with ~60% GET topwords pages, ~25% POST similar searches (a query
// document scored against 4–8 candidates), and ~15% GET vocab slices
// — the streamed, paginated read path rather than the write-heavy
// fold-in path. The query workload requires -model (routes are
// per-model) and discovers the topic count alongside the vocabulary.
//
// Usage:
//
//	warplda-loadgen -url http://localhost:8080 -model news \
//	  -duration 30s -concurrency 8 -doc-mix 16:0.7,128:0.3 \
//	  -out LOAD_$GITHUB_SHA.json -p99-budget 200ms -max-errors 0
//
// Budgets (all optional; one that is given fails the run, exit 1, on
// any machine):
//
//   - -p99-budget: absolute P99 latency ceiling.
//   - -min-throughput: absolute requests/s floor.
//   - -max-errors: ceiling on failed requests (non-2xx other than a
//     shed 503, plus transport errors).
//
// A run with no successful request always fails.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"warplda/internal/hist"
)

// Report is the LOAD_<sha>.json document.
type Report struct {
	SHA       string `json:"sha,omitempty"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	// CPUs is runtime.NumCPU() on the load-generating side, recorded so
	// a reader can judge the latencies; no budget depends on it.
	CPUs int `json:"cpus"`

	Mode        string  `json:"mode"`
	Workload    string  `json:"workload,omitempty"`
	Concurrency int     `json:"concurrency"`
	RateRPS     float64 `json:"rate_rps,omitempty"`
	DocMix      string  `json:"doc_mix"`
	Sweeps      int     `json:"sweeps"`
	DurationSec float64 `json:"duration_sec"`

	// Requests = OK + Shed + Errors + Dropped. Shed counts 503s (the
	// server's admission control working as designed); Errors counts
	// everything else non-2xx plus transport failures; Dropped counts
	// open-mode ticks skipped because all -concurrency slots were busy.
	Requests      int64   `json:"requests"`
	OK            int64   `json:"ok"`
	Shed          int64   `json:"shed"`
	Errors        int64   `json:"errors"`
	Dropped       int64   `json:"dropped,omitempty"`
	ThroughputRPS float64 `json:"throughput_rps"`
	// LatencyUs summarizes successful request latency in microseconds.
	LatencyUs hist.Snapshot `json:"latency_us"`
}

// mixEntry is one document length and its sampling weight.
type mixEntry struct {
	length int
	weight float64
}

// parseDocMix parses "LEN:WEIGHT,LEN:WEIGHT,..." ("16:0.7,128:0.3").
// Weights are normalized; a bare "LEN" means weight 1.
func parseDocMix(s string) ([]mixEntry, error) {
	var mix []mixEntry
	total := 0.0
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		lenStr, wStr, hasW := strings.Cut(part, ":")
		length, err := strconv.Atoi(lenStr)
		if err != nil || length <= 0 {
			return nil, fmt.Errorf("bad doc length %q in mix %q", lenStr, s)
		}
		w := 1.0
		if hasW {
			if w, err = strconv.ParseFloat(wStr, 64); err != nil || w <= 0 {
				return nil, fmt.Errorf("bad weight %q in mix %q", wStr, s)
			}
		}
		mix = append(mix, mixEntry{length, w})
		total += w
	}
	if len(mix) == 0 {
		return nil, fmt.Errorf("empty doc mix %q", s)
	}
	for i := range mix {
		mix[i].weight /= total
	}
	sort.Slice(mix, func(i, j int) bool { return mix[i].length < mix[j].length })
	return mix, nil
}

// sampleLen draws a document length from the mix.
func sampleLen(mix []mixEntry, r *rand.Rand) int {
	u := r.Float64()
	for _, m := range mix {
		if u < m.weight {
			return m.length
		}
		u -= m.weight
	}
	return mix[len(mix)-1].length
}

// config is one load run, fully resolved (vocabulary discovered).
type config struct {
	url         string // infer endpoint
	statsURL    string // base URL for discovery
	model       string
	mode        string
	workload    string // "infer" or "query"
	topics      int    // K, discovered; query workload only
	concurrency int
	rate        float64
	duration    time.Duration
	warmup      time.Duration
	mix         []mixEntry
	mixSpec     string
	sweeps      int
	vocab       int
	seed        int64
	deadlineMs  int
	client      *http.Client
}

// inferBody builds one request body with n uniform word ids.
func (c *config) inferBody(r *rand.Rand) []byte {
	n := sampleLen(c.mix, r)
	var b bytes.Buffer
	b.WriteString(`{"docs": [[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", r.Intn(c.vocab))
	}
	b.WriteString("]]")
	if c.sweeps > 0 {
		fmt.Fprintf(&b, `, "sweeps": %d`, c.sweeps)
	}
	b.WriteString("}")
	return b.Bytes()
}

// wordList renders n uniform word ids as a JSON array.
func (c *config) wordList(b *bytes.Buffer, n int, r *rand.Rand) {
	b.WriteByte('[')
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(b, "%d", r.Intn(c.vocab))
	}
	b.WriteByte(']')
}

// nextRequest builds one request for the configured workload.
func (c *config) nextRequest(r *rand.Rand) (*http.Request, error) {
	if c.workload == "query" {
		return c.queryRequest(r)
	}
	req, err := http.NewRequest(http.MethodPost, c.url, bytes.NewReader(c.inferBody(r)))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return req, nil
}

// queryRequest draws one request from the analytics mix: 60% topwords
// pages, 25% similar searches, 15% vocab slices. Prefixes slice on the
// decimal fallback labels so the mix works against models trained with
// or without a text vocabulary; an empty page is still a full trip
// through the query path.
func (c *config) queryRequest(r *rand.Rand) (*http.Request, error) {
	base := c.statsURL + "/v1/models/" + c.model + "/query"
	switch u := r.Float64(); {
	case u < 0.60:
		return http.NewRequest(http.MethodGet,
			fmt.Sprintf("%s/topwords?topic=%d&limit=20", base, r.Intn(c.topics)), nil)
	case u < 0.85:
		var b bytes.Buffer
		b.WriteString(`{"query": `)
		c.wordList(&b, sampleLen(c.mix, r), r)
		b.WriteString(`, "docs": [`)
		for i, n := 0, 4+r.Intn(5); i < n; i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			c.wordList(&b, sampleLen(c.mix, r), r)
		}
		b.WriteString("]")
		if c.sweeps > 0 {
			fmt.Fprintf(&b, `, "sweeps": %d`, c.sweeps)
		}
		b.WriteString("}")
		req, err := http.NewRequest(http.MethodPost, base+"/similar", bytes.NewReader(b.Bytes()))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		return req, nil
	default:
		return http.NewRequest(http.MethodGet,
			fmt.Sprintf("%s/vocab?prefix=%d&limit=50", base, r.Intn(10)), nil)
	}
}

// counters aggregate worker outcomes.
type counters struct {
	requests atomic.Int64
	ok       atomic.Int64
	shed     atomic.Int64
	errors   atomic.Int64
	dropped  atomic.Int64
}

// shoot sends one request and records the outcome. Only successful
// requests land in the latency histogram: shed requests return fast by
// design and would flatter the quantiles.
func shoot(c *config, req *http.Request, h *hist.Histogram, n *counters) {
	n.requests.Add(1)
	if c.deadlineMs > 0 {
		req.Header.Set("X-Deadline-Ms", strconv.Itoa(c.deadlineMs))
	}
	start := time.Now()
	resp, err := c.client.Do(req)
	if err != nil {
		n.errors.Add(1)
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusOK:
		n.ok.Add(1)
		h.Record(time.Since(start).Microseconds())
	case resp.StatusCode == http.StatusServiceUnavailable:
		n.shed.Add(1)
	default:
		n.errors.Add(1)
	}
}

// run executes one load phase (closed or open) for c.duration and
// returns the report. A non-zero warmup runs the same load first and
// discards its numbers, so engine caches and connection pools don't
// pollute the measured window.
func run(c *config) (*Report, error) {
	if c.vocab <= 0 || (c.workload == "query" && c.topics <= 0) {
		if err := discoverModel(c); err != nil {
			return nil, err
		}
	}
	if c.warmup > 0 {
		w := *c
		w.duration, w.warmup = c.warmup, 0
		if _, err := run(&w); err != nil {
			return nil, err
		}
	}
	h := hist.New()
	var n counters
	stop := make(chan struct{})
	var wg sync.WaitGroup
	switch c.mode {
	case "closed":
		for i := 0; i < c.concurrency; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				r := rand.New(rand.NewSource(c.seed + int64(i)))
				for {
					select {
					case <-stop:
						return
					default:
					}
					req, err := c.nextRequest(r)
					if err != nil {
						n.requests.Add(1)
						n.errors.Add(1)
						continue
					}
					shoot(c, req, h, &n)
				}
			}(i)
		}
	case "open":
		if c.rate <= 0 {
			return nil, fmt.Errorf("open mode needs -rate > 0")
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			slots := make(chan struct{}, c.concurrency)
			r := rand.New(rand.NewSource(c.seed))
			t := time.NewTicker(time.Duration(float64(time.Second) / c.rate))
			defer t.Stop()
			var inner sync.WaitGroup
			defer inner.Wait()
			for {
				select {
				case <-stop:
					return
				case <-t.C:
				}
				select {
				case slots <- struct{}{}:
				default:
					// All in-flight slots busy: an open-loop client drop,
					// reported separately from server-side shedding.
					n.dropped.Add(1)
					continue
				}
				req, err := c.nextRequest(r)
				if err != nil {
					n.requests.Add(1)
					n.errors.Add(1)
					<-slots
					continue
				}
				inner.Add(1)
				go func() {
					defer inner.Done()
					defer func() { <-slots }()
					shoot(c, req, h, &n)
				}()
			}
		}()
	default:
		return nil, fmt.Errorf("unknown mode %q (want closed or open)", c.mode)
	}
	start := time.Now()
	time.Sleep(c.duration)
	close(stop)
	wg.Wait()
	elapsed := time.Since(start).Seconds()

	return &Report{
		GoVersion:     runtime.Version(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		CPUs:          runtime.NumCPU(),
		Mode:          c.mode,
		Workload:      c.workload,
		Concurrency:   c.concurrency,
		RateRPS:       c.rate,
		DocMix:        c.mixSpec,
		Sweeps:        c.sweeps,
		DurationSec:   elapsed,
		Requests:      n.requests.Load(),
		OK:            n.ok.Load(),
		Shed:          n.shed.Load(),
		Errors:        n.errors.Load(),
		Dropped:       n.dropped.Load(),
		ThroughputRPS: float64(n.ok.Load()) / elapsed,
		LatencyUs:     h.Summary(),
	}, nil
}

// discoverModel asks the server for the model's dimensions (V for
// synthetic word ids, K for topwords topic draws). The model may not
// be resident yet (state "available", dimensions absent), so a probe
// inference request forces the load first.
func discoverModel(c *config) error {
	probe, err := http.NewRequest(http.MethodPost, c.url, strings.NewReader(`{"docs": [[0]]}`))
	if err != nil {
		return err
	}
	probe.Header.Set("Content-Type", "application/json")
	if resp, err := c.client.Do(probe); err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	resp, err := c.client.Get(c.statsURL + "/models/" + c.model)
	if err != nil {
		return fmt.Errorf("discovering model dimensions: %w", err)
	}
	defer resp.Body.Close()
	var mi struct {
		V int `json:"v"`
		K int `json:"k"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&mi); err != nil {
		return fmt.Errorf("discovering model dimensions: %w", err)
	}
	if c.vocab <= 0 {
		if mi.V <= 0 {
			return fmt.Errorf("model %q reports no vocabulary size; pass -vocab", c.model)
		}
		c.vocab = mi.V
	}
	if c.workload == "query" && c.topics <= 0 {
		if mi.K <= 0 {
			return fmt.Errorf("model %q reports no topic count; is it resident?", c.model)
		}
		c.topics = mi.K
	}
	return nil
}

// budgets are the absolute limits a run is held to; the zero value of
// p99 and minThroughput, and a negative maxErrors, mean "not given".
type budgets struct {
	p99           time.Duration
	minThroughput float64
	maxErrors     int64
}

// gate returns rep's budget violations. A run with no successful
// request is one whatever the budgets: nothing was measured. Shed 503s
// never count against maxErrors — admission control is allowed to say
// no.
func gate(rep *Report, b budgets) (violations []string) {
	if rep.OK == 0 {
		return []string{fmt.Sprintf("no successful requests (%d shed, %d errors): nothing measured", rep.Shed, rep.Errors)}
	}
	if b.maxErrors >= 0 && rep.Errors > b.maxErrors {
		violations = append(violations, fmt.Sprintf(
			"%d failed requests (budget %d): the serve path broke under load", rep.Errors, b.maxErrors))
	}
	if b.p99 > 0 && rep.LatencyUs.P99 > b.p99.Microseconds() {
		violations = append(violations, fmt.Sprintf(
			"P99 %.1fms over budget %.1fms",
			float64(rep.LatencyUs.P99)/1000, float64(b.p99.Microseconds())/1000))
	}
	if b.minThroughput > 0 && rep.ThroughputRPS < b.minThroughput {
		violations = append(violations, fmt.Sprintf(
			"throughput %.1f req/s under floor %.1f req/s", rep.ThroughputRPS, b.minThroughput))
	}
	return violations
}

// verdict prints gate's findings to w and returns the process exit
// code: 1 on any violation, whatever machine the run was on.
func verdict(w io.Writer, rep *Report, b budgets) int {
	violations := gate(rep, b)
	for _, v := range violations {
		fmt.Fprintf(w, "warplda-loadgen: FAIL: %s\n", v)
	}
	if len(violations) > 0 {
		return 1
	}
	fmt.Fprintln(w, "warplda-loadgen: within budget")
	return 0
}

func writeJSONFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "warplda-loadgen: %v\n", err)
	os.Exit(1)
}

func main() {
	var (
		url         = flag.String("url", "http://localhost:8080", "base URL of the warplda-serve instance")
		model       = flag.String("model", "", "model name (default: the server's /infer default route)")
		mode        = flag.String("mode", "closed", "load mode: closed (workers, one request in flight each) or open (fixed -rate)")
		workload    = flag.String("workload", "infer", "request mix: infer (fold-in documents) or query (topwords/similar/vocab analytics; requires -model)")
		concurrency = flag.Int("concurrency", 8, "closed: worker count; open: max requests in flight")
		rate        = flag.Float64("rate", 0, "open mode: offered requests per second")
		duration    = flag.Duration("duration", 10*time.Second, "measured load duration")
		warmup      = flag.Duration("warmup", time.Second, "warmup load before measuring (0 disables)")
		docMix      = flag.String("doc-mix", "16:0.7,128:0.3", "document length mix LEN:WEIGHT,...")
		sweeps      = flag.Int("sweeps", 0, "per-request sweep count (0 = server default)")
		vocab       = flag.Int("vocab", 0, "word-id range for synthetic documents (0 = discover via /models/{name})")
		seed        = flag.Int64("seed", 1, "document generator seed")
		deadlineMs  = flag.Int("deadline-ms", 0, "X-Deadline-Ms header on every request (0 = none)")
		timeout     = flag.Duration("timeout", 30*time.Second, "per-request client timeout")
		out         = flag.String("out", "", "write the LOAD_<sha>.json report here")
		sha         = flag.String("sha", os.Getenv("GITHUB_SHA"), "commit sha recorded in the report")
		p99Budget   = flag.Duration("p99-budget", 0, "absolute P99 latency ceiling (0 = off)")
		minThrough  = flag.Float64("min-throughput", 0, "absolute requests/s floor (0 = off)")
		maxErrors   = flag.Int64("max-errors", -1, "fail if failed requests (non-2xx/non-503 plus transport errors) exceed this (-1 = off)")
	)
	flag.Parse()

	mix, err := parseDocMix(*docMix)
	if err != nil {
		fatal(err)
	}
	switch *workload {
	case "infer":
	case "query":
		if *model == "" {
			fatal(fmt.Errorf("-workload query requires -model (query routes are per-model)"))
		}
	default:
		fatal(fmt.Errorf("unknown workload %q (want infer or query)", *workload))
	}
	inferURL := strings.TrimRight(*url, "/") + "/infer"
	if *model != "" {
		inferURL = strings.TrimRight(*url, "/") + "/models/" + *model + "/infer"
	}
	cfg := &config{
		url:         inferURL,
		statsURL:    strings.TrimRight(*url, "/"),
		model:       *model,
		mode:        *mode,
		workload:    *workload,
		concurrency: *concurrency,
		rate:        *rate,
		duration:    *duration,
		warmup:      *warmup,
		mix:         mix,
		mixSpec:     *docMix,
		sweeps:      *sweeps,
		vocab:       *vocab,
		seed:        *seed,
		deadlineMs:  *deadlineMs,
		client:      &http.Client{Timeout: *timeout},
	}
	if cfg.model == "" {
		cfg.model = "default"
		if cfg.vocab <= 0 {
			fatal(fmt.Errorf("-vocab is required when no -model is named (discovery needs /models/{name})"))
		}
	}

	rep, err := run(cfg)
	if err != nil {
		fatal(err)
	}
	rep.SHA = *sha
	fmt.Printf("warplda-loadgen: %s %s %d workers, %.1fs: %d ok, %d shed, %d errors, %.1f req/s, P50 %.1fms P95 %.1fms P99 %.1fms\n",
		rep.Mode, rep.Workload, rep.Concurrency, rep.DurationSec, rep.OK, rep.Shed, rep.Errors, rep.ThroughputRPS,
		float64(rep.LatencyUs.P50)/1000, float64(rep.LatencyUs.P95)/1000, float64(rep.LatencyUs.P99)/1000)
	if *out != "" {
		if err := writeJSONFile(*out, rep); err != nil {
			fatal(err)
		}
		fmt.Printf("warplda-loadgen: wrote %s\n", *out)
	}
	os.Exit(verdict(os.Stderr, rep, budgets{p99: *p99Budget, minThroughput: *minThrough, maxErrors: *maxErrors}))
}
