package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

// buildDirForTests is shared by every test so that cmd/warplda-serve
// is built once.
var buildDirForTests string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "benchmark-test-")
	if err != nil {
		panic(err)
	}
	buildDirForTests = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// runTiny runs one workload at -scale tiny in this process and
// returns the driver line it printed last.
func runTiny(t *testing.T, workload string, trace int) driverLine {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-root", "..", "-build-dir", buildDirForTests, "-scale", "tiny",
		"-workload", workload, "-seed", "3", "-seconds", "0.6", "-trace", strconv.Itoa(trace),
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("%s trace=%d: exit %d\n%s", workload, trace, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var line driverLine
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&line); err != nil {
		t.Fatalf("%s: last line of output is not the driver's JSON: %v\n%s", workload, err, lines[len(lines)-1])
	}
	return line
}

func checkLine(t *testing.T, workload string, line driverLine, defs []metricDef) {
	t.Helper()
	if !line.Correct || line.Attempted < 1 || line.Failed != 0 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d", workload, line.Correct, line.Attempted, line.Failed)
	}
	if len(line.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics reported, %d defined", workload, len(line.Metrics), len(defs))
	}
	for _, d := range defs {
		v, ok := line.Metrics[d.Name]
		if !ok {
			t.Errorf("%s: metric %s missing", workload, d.Name)
			continue
		}
		if v.Unit != d.Unit {
			t.Errorf("%s: %s has unit %q, want %q", workload, d.Name, v.Unit, d.Unit)
		}
		if d.Bound > 0 && v.Value <= 0 {
			t.Errorf("%s: end-to-end metric %s = %v, must never be 0", workload, d.Name, v.Value)
		}
	}
}

// TestSmoke runs every workload, untraced and traced, at tiny scale,
// and then looks for anything a run left behind.
func TestSmoke(t *testing.T) {
	start := time.Now()
	for _, w := range workloads {
		checkLine(t, w.Name, runTiny(t, w.Name, 0), endToEnd)
	}
	t.Logf("five untraced tiny runs: %.1f s", time.Since(start).Seconds())
	for _, w := range workloads {
		line := runTiny(t, w.Name, 1)
		checkLine(t, w.Name, line, perLayer)
		if _, err := os.Stat(filepath.Join(buildDirForTests, "trace_"+w.Name+".json")); err != nil {
			t.Errorf("%s: traced run wrote no trace file: %v", w.Name, err)
		}
		stall := line.Metrics["train.ckpt_stall_share"].Value
		if w.CkptEvery > 0 && stall <= 0 {
			t.Errorf("%s: train.ckpt_stall_share = %v, want > 0", w.Name, stall)
		}
		if w.CkptEvery == 0 && stall != 0 {
			t.Errorf("%s: train.ckpt_stall_share = %v, want 0", w.Name, stall)
		}
		if w.Refresh && line.Metrics["registry.deltas_applied"].Value == 0 {
			t.Errorf("%s: no delta was folded", w.Name)
		}
	}

	// Hygiene: no scratch directory and no child process survives.
	left, err := os.ReadDir(filepath.Join(buildDirForTests, "tmp"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range left {
		t.Errorf("scratch directory %s was left behind", e.Name())
	}
	procs, err := filepath.Glob("/proc/[0-9]*/stat")
	if err != nil {
		t.Fatal(err)
	}
	self := strconv.Itoa(os.Getpid())
	for _, p := range procs {
		data, err := os.ReadFile(p)
		if err != nil {
			continue // the process ended while we were looking
		}
		// "pid (comm) state ppid ...": a child has our pid as its ppid.
		end := bytes.LastIndexByte(data, ')')
		if f := strings.Fields(string(data[end+1:])); len(f) > 1 && f[1] == self {
			t.Errorf("child process still exists: %s", data[:end+1])
		}
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// TestBenchmarkJSON holds BENCHMARK.json to the driver's limits and to
// spec.go, which is what the program reports.
func TestBenchmarkJSON(t *testing.T) {
	path := filepath.Join("..", "BENCHMARK.json")
	if os.Getenv("UPDATE_BENCHMARK_JSON") != "" {
		if err := os.WriteFile(path, renderBenchmarkJSON(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, renderBenchmarkJSON()) {
		t.Errorf("BENCHMARK.json differs from spec.go; run UPDATE_BENCHMARK_JSON=1 go test -run TestBenchmarkJSON")
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(data))
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := raw[key]; !ok {
			t.Errorf("key %q missing", key)
		}
	}
	if len(raw) != 6 {
		t.Errorf("%d top-level keys, want exactly 6", len(raw))
	}
	bf, err := readBenchmarkFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", bf.RunSeconds)
	}
	if n := len(bf.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if n := len(bf.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(bf.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	// 4 + 22 runs per workload, each under thirty seconds, fit the cap.
	if runs := 4 + 22*len(bf.Workloads); float64(runs)*30 > 3420 {
		t.Errorf("%d runs leave under 30 s each", runs)
	}
	seen := map[string]bool{}
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q is outside the allowed characters or length", kind, n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	known := map[string]bool{}
	for _, w := range bf.Workloads {
		name("workload", w.Name)
		known[w.Name] = true
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	setup := false
	for _, m := range bf.EndToEnd {
		name("end-to-end", m.Name)
		known[m.Name] = true
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
			for _, o := range bf.EndToEnd {
				if o.Bound > m.Bound {
					t.Errorf("setup_s must have the largest bound; %s has %v", o.Name, o.Bound)
				}
			}
		}
	}
	if !setup {
		t.Error("no setup_s metric with unit s, lower is better")
	}
	for _, m := range bf.PerLayer {
		name("per-layer", m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
	}
	// Every per-layer metric says which end-to-end metric it should
	// move, on which workloads.
	for _, m := range perLayer {
		if !known[m.Moves] {
			t.Errorf("%s should move %q, which is no end-to-end metric", m.Name, m.Moves)
		}
		if len(m.On) == 0 {
			t.Errorf("%s names no workload", m.Name)
		}
		for _, w := range m.On {
			if _, ok := findWorkload(w); !ok {
				t.Errorf("%s names workload %q, which does not exist", m.Name, w)
			}
		}
	}
}

// renderBenchmarkJSON is BENCHMARK.json as spec.go defines it.
func renderBenchmarkJSON() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command: []string{"bash", "benchmark/run.sh"}, Paths: []string{"benchmark"}, RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.Name, w.Why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err)
	}
	return append(data, '\n')
}
