// Multi-process failure injection: these tests build the real
// warplda-train (with -listen, the coordinator) and warplda-worker
// binaries, run them against each other over loopback TCP, and recover
// from kill -9 — the fault model the elastic design promises to absorb
// without operator intervention.
package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"warplda/internal/cluster"
	"warplda/internal/corpus"
	"warplda/internal/eval"
	"warplda/internal/sampler"
)

// buildBinaries compiles both cluster binaries into dir. The go build
// cache makes repeat builds cheap.
func buildBinaries(t *testing.T, dir string) (coordBin, workerBin string) {
	t.Helper()
	coordBin = filepath.Join(dir, "warplda-train")
	workerBin = filepath.Join(dir, "warplda-worker")
	for bin, pkg := range map[string]string{
		coordBin:  "warplda/cmd/warplda-train",
		workerBin: "warplda/cmd/warplda-worker",
	} {
		cmd := exec.Command("go", "build", "-o", bin, pkg)
		cmd.Env = os.Environ()
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", pkg, err, out)
		}
	}
	return coordBin, workerBin
}

// writeTestCorpus materializes a synthetic corpus as a UCI file and
// returns its path plus the in-memory corpus for reference runs.
func writeTestCorpus(t *testing.T, dir string) (string, *corpus.Corpus) {
	t.Helper()
	c, err := corpus.GenerateLDA(corpus.SyntheticConfig{
		D: 300, V: 200, K: 5, MeanLen: 50, Alpha: 0.1, Beta: 0.05, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "corpus.uci")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := corpus.WriteUCI(f, c); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path, c
}

// proc wraps a running subprocess, buffering its combined output for
// pattern waits. Output is captured through an io.Writer sink rather
// than pipes: cmd.Wait is then guaranteed to finish copying every byte
// before it returns, so post-exit assertions see the full output.
type proc struct {
	t    *testing.T
	name string
	cmd  *exec.Cmd
	done chan error

	mu    sync.Mutex
	buf   []byte
	lines []string
}

func startProc(t *testing.T, name, bin string, args ...string) *proc {
	t.Helper()
	p := &proc{t: t, name: name, done: make(chan error, 1)}
	p.cmd = exec.Command(bin, args...)
	p.cmd.Stdout = (*procSink)(p)
	p.cmd.Stderr = (*procSink)(p)
	if err := p.cmd.Start(); err != nil {
		t.Fatalf("starting %s: %v", name, err)
	}
	go func() { p.done <- p.cmd.Wait() }()
	t.Cleanup(func() { p.cmd.Process.Kill(); <-p.done })
	return p
}

// procSink is proc's io.Writer face, splitting output into lines.
type procSink proc

func (s *procSink) Write(b []byte) (int, error) {
	p := (*proc)(s)
	p.mu.Lock()
	defer p.mu.Unlock()
	p.buf = append(p.buf, b...)
	for {
		i := bytes.IndexByte(p.buf, '\n')
		if i < 0 {
			break
		}
		line := string(p.buf[:i])
		p.buf = p.buf[i+1:]
		p.lines = append(p.lines, line)
		p.t.Logf("[%s] %s", p.name, line)
	}
	return len(b), nil
}

// waitFor blocks until some output line contains substr, counting only
// lines at index >= from; it returns the index just past the match so
// callers can wait for REPEATED occurrences.
func (p *proc) waitFor(substr string, from int, timeout time.Duration) int {
	p.t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		p.mu.Lock()
		for i := from; i < len(p.lines); i++ {
			if strings.Contains(p.lines[i], substr) {
				p.mu.Unlock()
				return i + 1
			}
		}
		from = len(p.lines)
		p.mu.Unlock()
		time.Sleep(20 * time.Millisecond)
	}
	p.t.Fatalf("%s: no %q within %v", p.name, substr, timeout)
	return 0
}

func (p *proc) kill9() {
	p.t.Logf("kill -9 %s (pid %d)", p.name, p.cmd.Process.Pid)
	p.cmd.Process.Kill()
	<-p.done
	p.done <- nil // keep the cleanup hook's receive from blocking
}

func (p *proc) waitExit(timeout time.Duration) error {
	p.t.Helper()
	select {
	case err := <-p.done:
		p.done <- nil
		return err
	case <-time.After(timeout):
		p.t.Fatalf("%s: still running after %v", p.name, timeout)
		return nil
	}
}

var (
	listenRe = regexp.MustCompile(`listening on (\S+)`)
	logLikRe = regexp.MustCompile(`iter\s+(\d+)\s+logLik (\S+)`)
)

// listenAddr extracts the coordinator's bound address from its logs.
func (p *proc) listenAddr() string {
	p.t.Helper()
	p.waitFor("listening on", 0, 10*time.Second)
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, l := range p.lines {
		if m := listenRe.FindStringSubmatch(l); m != nil {
			return m[1]
		}
	}
	p.t.Fatal("no listen address in coordinator output")
	return ""
}

// finalLogLik extracts the progress line for the final iteration from
// the coordinator's output.
func (p *proc) finalLogLik(iter int) float64 {
	p.t.Helper()
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := len(p.lines) - 1; i >= 0; i-- {
		m := logLikRe.FindStringSubmatch(p.lines[i])
		if m == nil {
			continue
		}
		if it, _ := strconv.Atoi(m[1]); it != iter {
			continue
		}
		ll, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			p.t.Fatalf("parsing logLik from %q: %v", p.lines[i], err)
		}
		return ll
	}
	p.t.Fatalf("no progress line for iteration %d in coordinator output", iter)
	return 0
}

func refLogLik(t *testing.T, c *corpus.Corpus, p, iters int) float64 {
	t.Helper()
	cfg := sampler.PaperDefaults(5)
	cfg.M = 2
	cfg.Seed = 1234
	d, err := cluster.NewDistributed(c, cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < iters; i++ {
		d.Iterate()
	}
	return eval.LogJoint(c, d.Assignments(), cfg.K, cfg.Alpha, cfg.Beta)
}

func checkTolerance(t *testing.T, got, want float64) {
	t.Helper()
	if rel := math.Abs(got-want) / math.Abs(want); rel > 0.05 {
		t.Fatalf("log likelihood %v vs reference %v: relative gap %.4f > 0.05", got, want, rel)
	}
}

func coordArgs(corpusPath, ckptDir, addr string, iters int) []string {
	return []string{
		"-algo", "distributed", "-listen", addr, "-corpus", corpusPath, "-checkpoint-dir", ckptDir,
		"-topics", "5", "-m", "2", "-seed", "1234", "-iters", fmt.Sprint(iters),
		"-threads", "2", "-eval-every", "3", "-checkpoint-every", "3", "-checkpoint-keep", "2",
	}
}

func workerArgs(addr, id string) []string {
	return []string{
		"-coordinator", addr, "-id", id,
		"-retry-backoff", "100ms", "-max-backoff", "500ms", "-max-retries", "200",
		"-read-timeout", "15s", "-write-timeout", "10s",
	}
}

// TestKillWorkerMidRunRecovers is the tentpole's failure-injection
// harness: SIGKILL one of two worker processes mid-run, start a
// replacement, and require the cluster to finish — unattended — with a
// log likelihood inside the elastic tolerance of a single-process run.
func TestKillWorkerMidRunRecovers(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process training run")
	}
	dir := t.TempDir()
	coordBin, workerBin := buildBinaries(t, dir)
	corpusPath, c := writeTestCorpus(t, dir)
	const iters = 24
	want := refLogLik(t, c, 2, iters)

	co := startProc(t, "coordinator", coordBin,
		coordArgs(corpusPath, filepath.Join(dir, "ckpt"), "127.0.0.1:0", iters)...)
	addr := co.listenAddr()
	victim := startProc(t, "victim", workerBin, workerArgs(addr, "victim")...)
	startProc(t, "survivor", workerBin, workerArgs(addr, "survivor")...)

	// Let training demonstrably commit a checkpoint, then kill -9 the
	// victim while passes are in flight.
	at := co.waitFor("log likelihood", 0, time.Minute)
	victim.kill9()
	// The coordinator must notice the death and abort the epoch on its
	// own; only then does the replacement arrive.
	at = co.waitFor("reforming from last checkpoint", at, 30*time.Second)
	startProc(t, "replacement", workerBin, workerArgs(addr, "replacement")...)

	if err := co.waitExit(2 * time.Minute); err != nil {
		t.Fatalf("coordinator exited with %v", err)
	}
	checkTolerance(t, co.finalLogLik(iters), want)
}

// TestKillCoordinatorRestartResumes SIGKILLs the coordinator mid-run
// with both workers alive, then restarts it on the same address and
// checkpoint directory: the workers must reconnect on their own and
// training must finish from the last committed checkpoint.
func TestKillCoordinatorRestartResumes(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process training run")
	}
	dir := t.TempDir()
	coordBin, workerBin := buildBinaries(t, dir)
	corpusPath, c := writeTestCorpus(t, dir)
	const iters = 24
	want := refLogLik(t, c, 2, iters)
	ckptDir := filepath.Join(dir, "ckpt")

	co := startProc(t, "coordinator", coordBin,
		coordArgs(corpusPath, ckptDir, "127.0.0.1:0", iters)...)
	addr := co.listenAddr()
	w0 := startProc(t, "w0", workerBin, workerArgs(addr, "w0")...)
	w1 := startProc(t, "w1", workerBin, workerArgs(addr, "w1")...)

	co.waitFor("log likelihood", 0, time.Minute)
	co.kill9()

	// Same address, same checkpoint directory, zero extra flags: restart
	// IS the recovery procedure. The workers' reconnect loops find it.
	co2 := startProc(t, "coordinator-2", coordBin,
		coordArgs(corpusPath, ckptDir, addr, iters)...)
	co2.waitFor("resume from iteration", 0, time.Minute)

	if err := co2.waitExit(2 * time.Minute); err != nil {
		t.Fatalf("restarted coordinator exited with %v", err)
	}
	checkTolerance(t, co2.finalLogLik(iters), want)
	if err := w0.waitExit(30 * time.Second); err != nil {
		t.Errorf("w0 exited with %v", err)
	}
	if err := w1.waitExit(30 * time.Second); err != nil {
		t.Errorf("w1 exited with %v", err)
	}
}
