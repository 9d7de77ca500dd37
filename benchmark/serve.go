package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"sync"
	"syscall"
	"time"

	"warplda"
	"warplda/internal/core"
	"warplda/internal/rng"
)

// Server defaults the workloads rely on (cmd/warplda-serve flags left
// unset): fold-in sweeps per document, MH steps, response seed.
const (
	serverSweeps = 20
	serverMH     = 2
	serverSeed   = 42
)

// modelFixture is the trained model a serve workload publishes, plus
// the corpus it came from (request documents are windows of it).
type modelFixture struct {
	c        *warplda.Corpus
	cfg      warplda.Config
	base     *warplda.Model
	baseIter int
	next     []*warplda.Model // later per-iteration snapshots, when kept in memory
	warp     *core.Warp
}

// buildModelFixture trains ServeIters iterations on NYTimesLike(factor)
// and snapshots the model, then extra more iterations with a snapshot
// after each; each, when non-nil, receives those instead of next. Its
// iterations are recorded as spans called spanName.
func buildModelFixture(rc *runCtx, factor float64, extra int, each func(iter int, m *warplda.Model) error, spanName string) (*modelFixture, error) {
	c, err := warplda.GenerateLDA(nytConfig(rc.seed, factor, saltServeCorpus))
	if err != nil {
		return nil, err
	}
	cfg := warplda.Defaults(rc.sc.ServeK)
	cfg.M = 2
	cfg.Seed = derive(rc.seed, saltTrain)
	s, err := warplda.NewSampler(warplda.WarpLDA, c, cfg)
	if err != nil {
		return nil, err
	}
	step := func(iter int) {
		sp := rc.tr.begin(spanName, noSpan, int64(iter))
		s.Iterate()
		rc.tr.end(sp)
	}
	for i := 1; i <= rc.sc.ServeIters; i++ {
		step(i)
	}
	mf := &modelFixture{c: c, cfg: cfg, base: warplda.Snapshot(c, s, cfg), baseIter: rc.sc.ServeIters, warp: s.(*core.Warp)}
	for i := 1; i <= extra; i++ {
		iter := rc.sc.ServeIters + i
		step(iter)
		m := warplda.Snapshot(c, s, cfg)
		if each == nil {
			mf.next = append(mf.next, m)
		} else if err := each(iter, m); err != nil {
			return nil, err
		}
	}
	return mf, nil
}

// A server is one running warplda-serve child.
type server struct {
	cmd  *exec.Cmd
	url  string
	log  string
	done chan struct{}
	err  error
}

// buildServer builds cmd/warplda-serve into the build directory; an
// up-to-date binary makes this a fraction of a second.
func buildServer(rc *runCtx) (string, error) {
	bin, err := filepath.Abs(filepath.Join(rc.buildDir, "bin", "warplda-serve"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/warplda-serve")
	cmd.Dir = rc.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building warplda-serve: %v\n%s", err, out)
	}
	return bin, nil
}

func freeLoopbackAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startServer launches the server on a free loopback port and returns
// once /v1/healthz answers. The child is registered for clean-up on
// every exit path.
func startServer(rc *runCtx, bin, modelsDir string) (*server, error) {
	addr, err := freeLoopbackAddr()
	if err != nil {
		return nil, err
	}
	logPath := filepath.Join(rc.dir, "serve.log")
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd := exec.Command(bin, "-models-dir", modelsDir, "-reload-interval", "100ms", "-addr", addr)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	sv := &server{cmd: cmd, url: "http://" + addr, log: logPath, done: make(chan struct{})}
	go func() {
		sv.err = cmd.Wait()
		close(sv.done)
	}()
	rc.children.add(sv)

	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := rc.client.Get(sv.url + "/v1/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return sv, nil
			}
		}
		select {
		case <-sv.done:
			return nil, fmt.Errorf("warplda-serve exited during start-up: %v\n%s", sv.err, tail(logPath))
		default:
		}
		if time.Now().After(deadline) {
			sv.stop()
			return nil, fmt.Errorf("warplda-serve did not become healthy\n%s", tail(logPath))
		}
		time.Sleep(time.Millisecond)
	}
}

// stop sends SIGTERM and reaps the child, killing it if the drain
// takes longer than ten seconds.
func (sv *server) stop() {
	sv.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-sv.done:
	case <-time.After(10 * time.Second):
		sv.cmd.Process.Kill()
		<-sv.done
	}
}

func tail(path string) string {
	data, _ := os.ReadFile(path)
	if len(data) > 2000 {
		data = data[len(data)-2000:]
	}
	return string(data)
}

// children tracks started servers so that a failed check or a signal
// still reaps every one of them.
type children struct {
	mu  sync.Mutex
	all []*server
}

func (c *children) add(sv *server) {
	c.mu.Lock()
	c.all = append(c.all, sv)
	c.mu.Unlock()
}

func (c *children) stopAll() {
	c.mu.Lock()
	all := c.all
	c.all = nil
	c.mu.Unlock()
	for _, sv := range all {
		sv.stop()
	}
}

// do sends one request and returns status, body and latency.
func do(client *http.Client, base string, q *request) (int, []byte, time.Duration, error) {
	var resp *http.Response
	var err error
	t := time.Now()
	if q.Body != nil {
		resp, err = client.Post(base+q.Path, "application/json", bytes.NewReader(q.Body))
	} else {
		resp, err = client.Get(base + q.Path)
	}
	if err != nil {
		return 0, nil, time.Since(t), err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, body, time.Since(t), err
}

type inferReply struct {
	Model   string      `json:"model"`
	Version int         `json:"version"`
	Topics  [][]float64 `json:"topics"`
	Top     []int       `json:"top"`
}

// probeAnswer sends the fixed probe document and returns the topic
// rows of the reply, re-encoded: the part that depends only on the
// document and the model served.
func probeAnswer(rc *runCtx, sv *server, probe *request) ([]byte, error) {
	status, body, _, err := do(rc.client, sv.url, probe)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("probe infer: status %d: %s", status, body)
	}
	var r inferReply
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, err
	}
	return json.Marshal(r.Topics)
}

// connLog is what one connection's closed loop recorded in the window.
type connLog struct {
	inferMs, queryMs []float64
	slice            []int    // per infer request: the slice it completed in
	bodies           [][]byte // per infer request, in order
	reqs             []int    // per infer request: schedule index
	attempted        int64
	failed           int64
	ok, tokens       [serveSlices]int64 // per slice: successful requests, their document tokens
	firstErr         string
}

// The measured window of a serve workload is cut into serveSlices
// equal slices and the timing metrics are taken over the quietSlices
// that completed the most requests.
const (
	serveSlices = 18
	quietSlices = 4
)

// tailQuantile is the percentile op_tail_ms reports over the quiet
// slices' infer requests: P95 of a few thousand on the single-document
// workloads, P90 of a few hundred on serve-batch. A P99 there spread
// two to three times wider from run to run than these do.
func tailQuantile(w workload) float64 {
	if w.Batch {
		return 0.90
	}
	return 0.95
}

// quietCount is how many slices completed at least 90% of what the
// slowest kept slice did.
func quietCount(ok []int64, floor int64) int {
	n := 0
	for _, v := range ok {
		if float64(v) >= 0.9*float64(floor) {
			n++
		}
	}
	return n
}

// statsReply is the part of GET /v1/stats the benchmark reads.
type statsReply struct {
	LatencyUs struct {
		Count int64 `json:"count"`
		P50   int64 `json:"p50"`
	} `json:"latency_us"`
	Registry struct {
		DeltasApplied int64   `json:"deltas_applied"`
		DeltaRejected int64   `json:"delta_rejected"`
		FoldMs        float64 `json:"fold_ms"`
		WordsRebuilt  int64   `json:"words_rebuilt"`
	} `json:"registry"`
	Batchers map[string]struct {
		Submitted     int64 `json:"submitted"`
		Batches       int64 `json:"batches"`
		BatchedDocs   int64 `json:"batched_docs"`
		ShedQueueFull int64 `json:"shed_queue_full"`
		ShedDeadline  int64 `json:"shed_deadline"`
	} `json:"batchers"`
}

type modelReply struct {
	Version    int   `json:"version"`
	Generation int64 `json:"generation"`
}

func getJSON(rc *runCtx, url string, v any) error {
	resp, err := rc.client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func runServe(rc *runCtx) (*record, error) {
	w, sc := rc.w, rc.sc
	res := newRecord()
	rc.client = &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns: rc.threads + 2, MaxIdleConnsPerHost: rc.threads + 2,
			DisableCompression: true,
		},
	}
	defer rc.client.CloseIdleConnections()

	t0 := time.Now()
	bin, err := buildServer(rc)
	if err != nil {
		return nil, err
	}
	res.Info["build_s"] = time.Since(t0).Seconds()

	// Fixture: the model, published the way warplda-train -publish-delta
	// publishes it, and for serve-refresh one snapshot file per later
	// iteration so that the writer never trains inside the window.
	t0 = time.Now()
	modelsDir := filepath.Join(rc.dir, "models")
	snapDir := filepath.Join(rc.dir, "snapshots")
	for _, d := range []string{modelsDir, snapDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	extra, each := 0, (func(int, *warplda.Model) error)(nil)
	var snapFiles []string
	var snapIters []int
	switch {
	case w.Refresh:
		extra = sc.Publishes
		each = func(iter int, m *warplda.Model) error {
			path := filepath.Join(snapDir, fmt.Sprintf("snap-%04d.bin", iter))
			snapFiles, snapIters = append(snapFiles, path), append(snapIters, iter)
			_, err := m.WriteFile(path)
			return err
		}
	case rc.tr != nil:
		extra = 1 // the delta probes need two consecutive snapshots
	}
	mf, err := buildModelFixture(rc, sc.ServeScale, extra, each, "core.iterate")
	if err != nil {
		return nil, fmt.Errorf("building model fixture: %w", err)
	}
	spec := filepath.Join(modelsDir, modelName)
	pub, err := warplda.NewDeltaPublisher(spec, sc.MaxChain, 0)
	if err != nil {
		return nil, err
	}
	if _, err := pub.Publish(mf.base, mf.baseIter); err != nil {
		return nil, fmt.Errorf("publishing base model: %w", err)
	}
	k := mf.cfg.K
	schedules := make([][]request, rc.threads)
	for i := range schedules {
		schedules[i] = buildSchedule(w, sc, rc.seed, i, sc.SchedulePerConn, mf.c, k)
	}
	probe := inferRequest([][]int32{corpusWindow(rng.Derive(rc.seed, saltProbe), mf.c, 64)})
	res.Info["fixture_s"] = time.Since(t0).Seconds()
	res.Info["model_words"], res.Info["model_topics"] = float64(mf.base.V), float64(k)

	// Set-up: process launch -> first 200 on the probe infer.
	var setups []float64
	timedStart := func() (*server, []byte, error) {
		sp := rc.tr.begin("serve.start", noSpan, 0)
		defer rc.tr.end(sp)
		t := time.Now()
		sv, err := startServer(rc, bin, modelsDir)
		if err != nil {
			return nil, nil, err
		}
		ans, err := probeAnswer(rc, sv, &probe)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
		return sv, ans, nil
	}
	sv, probeBefore, err := timedStart()
	if err != nil {
		return nil, err
	}

	// The closed loop: C connections, each sending its next request
	// when the previous reply is read. The window is cut into equal
	// slices (one per publish of serve-refresh, the same on the other
	// serve workloads); a reply belongs to the slice it completed in.
	guard := startNoiseGuard(sc.SpinIters)
	warmEnd := time.Now().Add(sc.Warmup)
	window := time.Duration(rc.seconds * float64(time.Second))
	sliceLen := window / serveSlices
	measureEnd := warmEnd.Add(sliceLen * serveSlices)
	logs := make([]*connLog, rc.threads)
	var wg sync.WaitGroup
	loadSpan := rc.tr.begin("serve.load", noSpan, 0)
	for ci := range logs {
		lg := &connLog{}
		logs[ci] = lg
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			sched := schedules[ci]
			for i := 0; ; i++ {
				t := time.Now()
				if !t.Before(measureEnd) {
					return
				}
				measured := !t.Before(warmEnd)
				qi := i % len(sched)
				q := &sched[qi]
				sp := noSpan
				if measured {
					name := "http.query"
					if q.Infer {
						name = "http.infer"
					}
					sp = rc.tr.begin(name, loadSpan, int64(ci)<<32|int64(i))
				}
				status, body, lat, err := do(rc.client, sv.url, q)
				rc.tr.end(sp)
				if sp != noSpan {
					rc.tr.count("http.requests", 1)
					rc.tr.count("http.infer.tokens", int64(q.Tokens))
					rc.tr.count("http.reply.bytes", int64(len(body)))
				}
				slice := int(t.Add(lat).Sub(warmEnd) / sliceLen)
				if !measured || slice >= serveSlices {
					continue
				}
				lg.attempted++
				if err != nil || status != http.StatusOK {
					lg.failed++
					if lg.firstErr == "" {
						lg.firstErr = fmt.Sprintf("%s: status %d err %v body %.200s", q.Path, status, err, body)
					}
					continue
				}
				lg.ok[slice]++
				ms := float64(lat.Nanoseconds()) / 1e6
				if q.Infer {
					lg.inferMs = append(lg.inferMs, ms)
					lg.slice = append(lg.slice, slice)
					lg.bodies = append(lg.bodies, body)
					lg.reqs = append(lg.reqs, qi)
					lg.tokens[slice] += int64(q.Tokens)
				} else {
					lg.queryMs = append(lg.queryMs, ms)
				}
			}
		}(ci)
	}

	// At every slice boundary: the server's CPU time so far, and for a
	// traced run whether the next slice records spans (alternate ones
	// do).
	var cpuAt [serveSlices + 1]time.Duration
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i <= serveSlices; i++ {
			time.Sleep(time.Until(warmEnd.Add(sliceLen * time.Duration(i))))
			cpuAt[i] = procCPU(sv.cmd.Process.Pid)
			rc.tr.setPaused(i%2 == 0 && i < serveSlices)
		}
	}()

	// The writer of serve-refresh: one publish in the middle of every
	// slice, each from a snapshot file prepared above.
	var published []warplda.DeltaPublishResult
	var pubErr error
	if w.Refresh {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, path := range snapFiles {
				time.Sleep(time.Until(warmEnd.Add(sliceLen*time.Duration(i) + sliceLen/2)))
				sp := rc.tr.begin("refresh.publish", loadSpan, int64(i))
				rd := rc.tr.begin("model.read", sp, int64(i))
				m, err := readModelFile(path)
				rc.tr.end(rd)
				var r warplda.DeltaPublishResult
				if err == nil {
					wr := rc.tr.begin("publisher.publish", sp, int64(i))
					r, err = pub.Publish(m, snapIters[i])
					rc.tr.end(wr)
				}
				rc.tr.end(sp)
				if err != nil {
					pubErr = fmt.Errorf("publish %d: %w", i, err)
					return
				}
				rc.tr.count("refresh.cells", int64(r.Cells))
				published = append(published, r)
			}
		}()
	}
	wg.Wait()
	rc.tr.end(loadSpan)
	guard.end(res)
	if pubErr != nil {
		return nil, pubErr
	}

	// After the window: on serve-refresh the server must end up serving
	// the writer's last snapshot, which shows as the generation that
	// publish had and as the probe document answered exactly the way an
	// engine built from that snapshot answers it. Elsewhere the probe
	// must answer as it did before the window.
	probeWant := probeBefore
	wantGen := int64(0)
	if n := len(published); n > 0 {
		if !published[n-1].Full {
			wantGen = published[n-1].Gen
		}
		last, err := readModelFile(snapFiles[n-1])
		if err != nil {
			return nil, err
		}
		lastEng, err := warplda.NewInferEngine(last, warplda.InferOptions{MHSteps: serverMH})
		if err != nil {
			return nil, err
		}
		topics, err := lastEng.InferBatch(probe.Docs, serverSweeps, serverSeed)
		if err != nil {
			return nil, err
		}
		if probeWant, err = json.Marshal(topics); err != nil {
			return nil, err
		}
	}
	var mi modelReply
	var probeAfter []byte
	for deadline := time.Now().Add(3 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		if err := getJSON(rc, sv.url+"/v1/models/"+modelName, &mi); err != nil {
			return nil, err
		}
		if probeAfter, err = probeAnswer(rc, sv, &probe); err != nil {
			return nil, err
		}
		if (mi.Generation == wantGen && bytes.Equal(probeAfter, probeWant)) || time.Now().After(deadline) {
			break
		}
	}
	var stats statsReply
	if err := getJSON(rc, sv.url+"/v1/stats", &stats); err != nil {
		return nil, err
	}
	rssMB := procPeakRSSMB(sv.cmd.Process.Pid)
	sv.stop()

	// Totals, and the quiet quarter of the slices: the ones that
	// completed the most requests (see quiet in stats.go).
	var okBySlice, tokensBySlice [serveSlices]int64
	var queryMs []float64
	firstErr := ""
	for _, lg := range logs {
		queryMs = append(queryMs, lg.queryMs...)
		res.Attempted += lg.attempted
		res.Failed += lg.failed
		for i := range okBySlice {
			okBySlice[i] += lg.ok[i]
			tokensBySlice[i] += lg.tokens[i]
		}
		if firstErr == "" {
			firstErr = lg.firstErr
		}
	}
	order := make([]int, serveSlices)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return okBySlice[order[a]] > okBySlice[order[b]] })
	var kept [serveSlices]bool
	var quietOK int64
	var quietCPU time.Duration
	for _, i := range order[:quietSlices] {
		kept[i] = true
		quietOK += okBySlice[i]
		quietCPU += cpuAt[i+1] - cpuAt[i]
	}
	var inferMs, quietInferMs []float64
	for _, lg := range logs {
		inferMs = append(inferMs, lg.inferMs...)
		for j, ms := range lg.inferMs {
			if kept[lg.slice[j]] {
				quietInferMs = append(quietInferMs, ms)
			}
		}
	}
	for _, n := range okBySlice {
		res.Series = append(res.Series, float64(n))
	}
	quietSeconds := (sliceLen * quietSlices).Seconds()
	wholeOK := res.Attempted - res.Failed
	res.Info["infer_requests"], res.Info["query_requests"] = float64(len(inferMs)), float64(len(queryMs))
	res.Info["query_p50_ms"] = median(queryMs)
	res.Info["whole_window_ops_per_s"] = float64(wholeOK) / (sliceLen * serveSlices).Seconds()
	res.Info["whole_window_op_p50_ms"] = median(inferMs)
	res.Info["quiet_share"] = float64(quietCount(okBySlice[:], okBySlice[order[quietSlices-1]])) / serveSlices
	if len(quietInferMs) == 0 {
		return nil, fmt.Errorf("no successful infer request in the window: %s", firstErr)
	}
	// Document tokens per request over the whole window: the quiet
	// slices' own draw of 16- and 128-token documents would add the
	// schedule's noise to the token rates.
	var tokens int64
	for _, n := range tokensBySlice {
		tokens += n
	}
	tokensPerOp := float64(tokens) / float64(wholeOK)

	eng, err := warplda.NewInferEngine(mf.base, warplda.InferOptions{MHSteps: serverMH})
	if err != nil {
		return nil, err
	}
	badRows, firstBad, nll := checkReplies(logs, schedules, eng)

	res.check("every request answered 200", res.Failed == 0, "%d of %d failed: %s", res.Failed, res.Attempted, firstErr)
	res.check("every infer row has K entries summing to 1", badRows == 0, "%d bad: %s", badRows, firstBad)
	if w.Refresh {
		res.check("the writer's last snapshot is what is served", mi.Generation == wantGen && bytes.Equal(probeAfter, probeWant),
			"served version %d generation %d, last publish had generation %d; probe answers equal: %v",
			mi.Version, mi.Generation, wantGen, bytes.Equal(probeAfter, probeWant))
		res.check("no delta rejected", stats.Registry.DeltaRejected == 0, "delta_rejected=%d", stats.Registry.DeltaRejected)
		res.check("every publish happened", len(published) == len(snapFiles), "%d of %d", len(published), len(snapFiles))
	} else {
		res.check("probe document answers the same bytes before and after", bytes.Equal(probeAfter, probeWant), "%d vs %d bytes", len(probeWant), len(probeAfter))
	}

	if rc.tr != nil {
		pl := serveLayerMetrics(rc, mf, eng, logs, schedules, inferMs, queryMs, stats, window, okBySlice[:], quietCPU.Seconds()/float64(quietOK))
		corpusPath := filepath.Join(rc.dir, "docword.txt")
		f, err := os.Create(corpusPath)
		if err != nil {
			return nil, err
		}
		err = warplda.WriteUCI(f, mf.c)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
		m1 := (*warplda.Model)(nil)
		if w.Refresh {
			if m1, err = readModelFile(snapFiles[0]); err != nil {
				return nil, err
			}
		} else {
			m1 = mf.next[0]
		}
		in := probeInput{
			corpusPath: corpusPath, c: mf.c, cfg: mf.cfg, warp: mf.warp,
			m0: mf.base, m1: m1, docs: mf.c, threads: rc.threads, dir: rc.dir, seed: rc.seed,
		}
		if err := runProbes(rc, in, pl); err != nil {
			return nil, err
		}
		finishCore(pl, rc.tr.durationsMs("core.iterate"), mf.c.NumTokens())
		pl["process.cpu_us_per_token"] = quietCPU.Seconds() * 1e6 / (float64(quietOK) * tokensPerOp)
		res.Metrics = pl
		return res, nil
	}

	for i := 1; i < sc.SetupRepeats; i++ {
		sv, _, err := timedStart()
		if err != nil {
			return nil, err
		}
		sv.stop()
	}
	res.Metrics = map[string]float64{
		"tokens_per_s":  float64(quietOK) / quietSeconds * tokensPerOp,
		"ops_per_s":     float64(quietOK) / quietSeconds,
		"op_p50_ms":     median(quietInferMs),
		"op_tail_ms":    quantile(quietInferMs, tailQuantile(w)),
		"nll_per_token": nll,
		"peak_rss_mb":   rssMB,
		"setup_s":       median(setups),
	}
	return res, nil
}

// checkReplies decodes every infer reply and counts the rows that are
// not K entries summing to 1. The first replies of each connection
// also give the output-quality figure: the mean negative
// log-likelihood per token of the request's documents under the
// returned mixtures and eng's topics.
func checkReplies(logs []*connLog, schedules [][]request, eng *warplda.InferEngine) (badRows int, firstBad string, nll float64) {
	const qualityReplies = 256
	bad := func(format string, args ...any) {
		badRows++
		if firstBad == "" {
			firstBad = fmt.Sprintf(format, args...)
		}
	}
	nllSum, nllTokens := 0.0, 0
	for ci, lg := range logs {
		for j, body := range lg.bodies {
			var r inferReply
			docs := schedules[ci][lg.reqs[j]].Docs
			if err := json.Unmarshal(body, &r); err != nil || len(r.Topics) != len(docs) {
				bad("conn %d reply %d: %d rows for %d documents (%v)", ci, j, len(r.Topics), len(docs), err)
				continue
			}
			for d, row := range r.Topics {
				sum := 0.0
				for _, p := range row {
					sum += p
				}
				if len(row) != eng.K() || math.Abs(sum-1) > 1e-6 {
					bad("conn %d reply %d row %d: len %d sum %.9f", ci, j, d, len(row), sum)
					continue
				}
				if j >= qualityReplies {
					continue
				}
				for _, word := range docs[d] {
					p := 0.0
					for t, th := range row {
						p += th * eng.Phi(int(word), t)
					}
					nllSum -= math.Log(p)
					nllTokens++
				}
			}
		}
	}
	return badRows, firstBad, nllSum / float64(nllTokens)
}

func readModelFile(path string) (*warplda.Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return warplda.ReadModel(f)
}

// serveLayerMetrics derives the serve-side per-layer numbers of a
// traced serve run from the client's spans and the server's counters.
func serveLayerMetrics(rc *runCtx, mf *modelFixture, eng *warplda.InferEngine, logs []*connLog, schedules [][]request,
	inferMs, queryMs []float64, stats statsReply, window time.Duration, okBySlice []int64, serverCPUPerOp float64) map[string]float64 {
	pl := map[string]float64{}
	zeroTrainLayers(pl)

	// The same documents through an in-process engine: the share of the
	// server's CPU time per request that is fold-in. CPU time on both
	// sides, so that C requests sharing the processors do not count as
	// the engine being slow.
	lg := logs[0]
	sampled, inferShare := 0, float64(len(inferMs))/float64(len(inferMs)+len(queryMs))
	cpu0 := selfCPU()
	for j := 0; j < len(lg.reqs) && j < 200; j++ {
		if _, err := eng.InferBatch(schedules[0][lg.reqs[j]].Docs, serverSweeps, serverSeed); err == nil {
			sampled++
		}
	}
	engineCPUPerOp := (selfCPU() - cpu0).Seconds() / float64(sampled) * inferShare
	pl["serve.engine_share"] = engineCPUPerOp / serverCPUPerOp
	pl["serve.http_gap_share"] = 1 - float64(stats.LatencyUs.P50)/1e3/median(inferMs)
	pl["serve.query_over_infer_p50"] = 0
	if len(queryMs) > 0 {
		pl["serve.query_over_infer_p50"] = median(queryMs) / median(inferMs)
	}

	pl["batcher.docs_per_dispatch"], pl["batcher.shed_share"] = 0, 0
	if b, ok := stats.Batchers[modelName]; ok && b.Batches > 0 {
		pl["batcher.docs_per_dispatch"] = float64(b.BatchedDocs) / float64(b.Batches)
		pl["batcher.shed_share"] = float64(b.ShedQueueFull+b.ShedDeadline) / float64(b.Submitted+b.ShedQueueFull)
	}
	pl["registry.fold_share"] = stats.Registry.FoldMs / 1e3 / window.Seconds()
	pl["registry.deltas_applied"] = float64(stats.Registry.DeltasApplied)
	pl["registry.delta_rejected"] = float64(stats.Registry.DeltaRejected)
	pl["registry.words_rebuilt"] = float64(stats.Registry.WordsRebuilt)

	// Even slices recorded no spans, odd ones did. Neighbouring slices
	// share whatever disturbed them, so the overhead is the median ratio
	// of an untraced slice's completed requests to the next traced one's.
	var ratios []float64
	for i := 0; i+1 < len(okBySlice); i += 2 {
		ratios = append(ratios, float64(okBySlice[i])/float64(okBySlice[i+1]))
	}
	pl["trace.overhead_share"] = median(ratios) - 1
	return pl
}
