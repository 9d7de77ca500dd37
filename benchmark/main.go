// Command benchmark is the repository's benchmark: five named
// workloads over the training and serving paths, end-to-end metrics
// from an untraced run, per-layer metrics from a traced one, and the
// correctness checks that make either number mean something. See
// README.md in this directory and BENCHMARK.json at the repository
// root.
//
// Usage (from the repository root):
//
//	bash benchmark/run.sh --workload serve-batch --seed 1 --seconds 10 --trace 0
//	bash benchmark/run.sh --workload all --runs 3 --out a.jsonl
//	bash benchmark/run.sh --compare a.jsonl b.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// runCtx is one workload run's inputs and the resources it must give
// back.
type runCtx struct {
	w       workload
	sc      scale
	seed    uint64
	seconds float64
	// threads is C: client connections for a serve workload, sampler
	// threads for a threaded train workload. min(nproc, 4).
	threads  int
	root     string // repository root (holds go.mod and cmd/)
	buildDir string // keeps the built server between runs
	dir      string // this run's scratch directory, removed on exit
	tr       *tracer
	client   *http.Client
	children children
}

type checkResult struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

func newRecord() *record { return &record{Info: map[string]float64{}} }

func (r *record) check(name string, ok bool, format string, args ...any) {
	r.Checks = append(r.Checks, checkResult{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

// checksPass reports whether every correctness check passed.
func (r *record) checksPass() bool {
	for _, c := range r.Checks {
		if !c.OK {
			return false
		}
	}
	return true
}

// A noiseGuard brackets the measured part of a run: a fixed
// calibration spin before and after it, and the host's steal time
// across it.
type noiseGuard struct {
	iters  int
	spinMs float64
	steal  int64
	at     time.Time
}

func startNoiseGuard(spinIters int) noiseGuard {
	return noiseGuard{iters: spinIters, spinMs: calibrationSpin(spinIters), steal: stealTicks(), at: time.Now()}
}

// end marks the run disturbed when the two spins differ by more than
// a tenth, or when the hypervisor kept more than a hundredth of the
// processors' time from this guest: then other tenants, not the code,
// decided the figures, and the run is to be repeated.
func (g noiseGuard) end(r *record) {
	processorSeconds := time.Since(g.at).Seconds() * float64(runtime.NumCPU())
	r.Info["steal_share"] = float64(stealTicks()-g.steal) / 100 / processorSeconds
	after := calibrationSpin(g.iters)
	r.SpinMs = [2]float64{g.spinMs, after}
	r.Disturbed = math.Abs(after-g.spinMs) > 0.1*math.Min(g.spinMs, after) || r.Info["steal_share"] > 0.01
}

// calibrationSpin times a fixed amount of arithmetic (at full scale
// about 200 ms on the machine the bounds were calibrated on).
func calibrationSpin(iters int) float64 {
	t := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < iters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	sink += x
	return float64(time.Since(t).Microseconds()) / 1e3
}

// stealTicks is the time, in hundredths of a second summed over
// processors, that the hypervisor ran something else while this guest
// wanted to run (the eighth figure of /proc/stat's first line).
func stealTicks() int64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 {
		return 0
	}
	n, _ := strconv.ParseInt(f[8], 10, 64)
	return n
}

// envRecord says where numbers came from, so that numbers from
// different machines are never compared silently.
type envRecord struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	C          int    `json:"c"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
}

// machine is the record without the commit: what two sides of a
// comparison must share.
func (e envRecord) machine() envRecord {
	e.Commit = ""
	return e
}

func readEnv(root string, c int) envRecord {
	env := envRecord{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), C: c,
		GoVersion: runtime.Version(), CPUModel: "unknown", Commit: "unknown",
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "model name" {
				env.CPUModel = strings.TrimSpace(val)
				break
			}
		}
	}
	cmd := exec.Command("git", "rev-parse", "--short=12", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	return env
}

// procStatusMB reads one "Vm*: n kB" field of a process's status.
func procStatusMB(pid, field string) float64 {
	data, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return math.NaN()
}

func selfPeakRSSMB() float64        { return procStatusMB("self", "VmHWM") }
func procPeakRSSMB(pid int) float64 { return procStatusMB(strconv.Itoa(pid), "VmHWM") }

// procCPU is a process's user+system CPU time from /proc/<pid>/stat.
func procCPU(pid int) time.Duration {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 14th and 15th of the line, in clock ticks of 10 ms.
	rest := string(data[strings.LastIndexByte(string(data), ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	return time.Duration(ut+st) * 10 * time.Millisecond
}

func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// record is one run: what a workload reports, where it ran, and what
// -out appends and -compare reads. LLTrace is a train run's
// log-likelihood per token at every evaluation (every second
// iteration), which the targets in spec.go were read from; Series is
// the per-slice figure the quiet value was taken from, in time order:
// milliseconds per plain iteration (train) or requests completed per
// slice (serve).
type record struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Scale     string             `json:"scale"`
	Seconds   float64            `json:"seconds"`
	Trace     bool               `json:"trace"`
	Env       envRecord          `json:"env"`
	SpinMs    [2]float64         `json:"spin_ms"`
	Disturbed bool               `json:"disturbed"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	Info      map[string]float64 `json:"info"`
	Checks    []checkResult      `json:"checks"`
	LLTrace   []float64          `json:"ll_trace,omitempty"`
	Series    []float64          `json:"series,omitempty"`
}

// driverLine is the last line of standard output: exactly the keys
// the driver reads.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("workload", "all", "workload name, or all")
		seed     = fs.Uint64("seed", 1, "seed every input is generated from")
		seconds  = fs.Float64("seconds", runSeconds, "length of the measured window")
		trace    = fs.Int("trace", 0, "1: traced run, reports the per-layer metrics and writes trace_<workload>.json")
		scaleArg = fs.String("scale", "full", "full or tiny (tiny is for the smoke test; its numbers mean nothing)")
		out      = fs.String("out", "", "append one JSON record per run to this file (input of -compare)")
		runs     = fs.Int("runs", 1, "with -workload all: how many times to run each workload")
		reverse  = fs.Bool("reverse", false, "with -workload all: run the workloads in reverse order")
		compare  = fs.Bool("compare", false, "compare two -out files: benchmark -compare a.jsonl b.jsonl")
		root     = fs.String("root", ".", "repository root")
		buildDir = fs.String("build-dir", ".bench_build", "directory for the built server, scratch files and traces")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: benchmark -compare a.jsonl b.jsonl")
			return 2
		}
		return compareFiles(stdout, filepath.Join(*root, "BENCHMARK.json"), fs.Arg(0), fs.Arg(1))
	}
	sc, ok := scales[*scaleArg]
	if !ok {
		fmt.Fprintf(stderr, "benchmark: unknown scale %q\n", *scaleArg)
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "benchmark: -seconds must be positive")
		return 2
	}
	if *name == "all" {
		return runAll(args, *runs, *reverse, stdout, stderr)
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *name)
		return 2
	}

	c := runtime.NumCPU()
	if c > 4 {
		c = 4
	}
	rc := &runCtx{w: w, sc: sc, seed: *seed, seconds: *seconds, threads: c, root: *root, buildDir: *buildDir}
	if *trace != 0 {
		rc.tr = newTracer()
	}
	if err := os.MkdirAll(filepath.Join(rc.buildDir, "tmp"), 0o755); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	dir, err := os.MkdirTemp(filepath.Join(rc.buildDir, "tmp"), w.Name+"-")
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	rc.dir = dir
	cleanup := func() {
		rc.children.stopAll()
		os.RemoveAll(rc.dir)
	}
	// A signal cleans up too. The watcher ends with the run, so a test
	// that runs several workloads in one process leaves none behind.
	sig, finished := make(chan os.Signal, 1), make(chan struct{})
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer func() {
		signal.Stop(sig)
		close(finished)
	}()
	go func() {
		select {
		case <-sig:
			cleanup()
			os.Exit(130)
		case <-finished:
		}
	}()

	env := readEnv(rc.root, c)
	var rec *record
	if w.Kind == "train" {
		rec, err = runTrain(rc)
	} else {
		rec, err = runServe(rc)
	}
	if err == nil && rc.tr != nil {
		err = rc.tr.write(filepath.Join(rc.buildDir, "trace_"+w.Name+".json"), w.Name, rc.seed, env)
	}
	cleanup()
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.Name, err)
		return 1
	}

	defs := endToEnd
	if rc.tr != nil {
		defs = perLayer
	}
	for name, v := range rec.Info {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			delete(rec.Info, name) // a figure the workload does not have; JSON cannot carry it
		}
	}
	rec.Workload, rec.Seed, rec.Scale, rec.Seconds, rec.Trace, rec.Env = w.Name, rc.seed, sc.Name, rc.seconds, rc.tr != nil, env
	rec.Correct = rec.checksPass()
	line := driverLine{Correct: rec.Correct, Attempted: rec.Attempted, Failed: rec.Failed, Metrics: map[string]driverValue{}}
	for _, d := range defs {
		v, ok := rec.Metrics[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(stderr, "benchmark: %s: metric %s was not measured (%v)\n", w.Name, d.Name, v)
			rec.Correct, line.Correct = false, false
			v = 0
			rec.Metrics[d.Name] = 0
		}
		line.Metrics[d.Name] = driverValue{Value: v, Unit: d.Unit}
	}
	report(stderr, *rec, defs)
	if *out != "" {
		if err := appendRecord(*out, *rec); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	data, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(data))
	if !rec.Correct {
		return 1
	}
	return 0
}

// runAll runs every workload in a child process each, so that peak
// memory and heap state never leak from one workload into the next.
func runAll(args []string, runs int, reverse bool, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	order := append([]workload(nil), workloads...)
	if reverse {
		for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
			order[i], order[j] = order[j], order[i]
		}
	}
	status := 0
	for r := 0; r < runs; r++ {
		for _, w := range order {
			cmd := exec.Command(exe, append(append([]string(nil), args...), "-workload", w.Name)...)
			cmd.Stdout, cmd.Stderr = stdout, stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.Name, err)
				status = 1
			}
		}
	}
	return status
}

func appendRecord(path string, rec record) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// report prints the run for a person: where it ran, every metric by
// name and unit, the informational figures and the checks.
func report(w io.Writer, rec record, defs []metricDef) {
	fmt.Fprintf(w, "== %s  seed=%d scale=%s seconds=%g trace=%v\n", rec.Workload, rec.Seed, rec.Scale, rec.Seconds, rec.Trace)
	fmt.Fprintf(w, "   env: nproc=%d GOMAXPROCS=%d C=%d %s %q commit=%s\n",
		rec.Env.NProc, rec.Env.GOMAXPROCS, rec.Env.C, rec.Env.GoVersion, rec.Env.CPUModel, rec.Env.Commit)
	disturbed := ""
	if rec.Disturbed {
		disturbed = "  DISTURBED: the spins differ by more than 10% or steal_share is above 1%"
	}
	fmt.Fprintf(w, "   calibration spin: %.1f ms before, %.1f ms after%s\n", rec.SpinMs[0], rec.SpinMs[1], disturbed)
	fmt.Fprintf(w, "   operations: %d attempted, %d failed\n", rec.Attempted, rec.Failed)
	for _, d := range defs {
		fmt.Fprintf(w, "   %-36s %16.6g %s\n", d.Name, rec.Metrics[d.Name], d.Unit)
	}
	names := make([]string, 0, len(rec.Info))
	for name := range rec.Info {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "   (info) %-29s %16.6g\n", name, rec.Info[name])
	}
	if len(rec.LLTrace) > 0 {
		fmt.Fprintf(w, "   (info) log-likelihood per token at every second iteration: %.3f\n", rec.LLTrace)
	}
	for _, c := range rec.Checks {
		verdict := "ok  "
		if !c.OK {
			verdict = "FAIL"
		}
		fmt.Fprintf(w, "   check %s %s (%s)\n", verdict, c.Name, c.Detail)
	}
}
