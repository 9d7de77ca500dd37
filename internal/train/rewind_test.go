package train_test

import (
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"reflect"
	"testing"

	"warplda/internal/corpus"
	"warplda/internal/sampler"
	"warplda/internal/train"
)

// rewinder is a sampler.Rewinder whose whole state is its iteration
// count; its assignments are a fixed function of it. The passes in
// losePass (keyed by the iteration they complete), the Assignments
// reads in loseRead and the ShardTo calls in loseShard (keyed by the
// iteration they read) are lost, each once. stopAt closes stop during
// that pass. Any state read while the state is lost fails the test:
// nothing may be evaluated or checkpointed from a lost pass. written
// lists the iterations of the shards written.
type rewinder struct {
	t                             *testing.T
	c                             *corpus.Corpus
	k, iter                       int
	lost                          bool
	losePass, loseRead, loseShard map[int]bool
	stopAt                        int
	stop                          chan struct{}
	z                             [][]int32
	written                       []int
}

func newRewinder(t *testing.T, c *corpus.Corpus, k int) *rewinder {
	r := &rewinder{t: t, c: c, k: k, stop: make(chan struct{}), z: make([][]int32, len(c.Docs))}
	for d, doc := range c.Docs {
		r.z[d] = make([]int32, len(doc))
	}
	return r
}

func (r *rewinder) Name() string   { return "rewinder" }
func (r *rewinder) NumShards() int { return 1 }
func (r *rewinder) Lost() bool     { return r.lost }

func (r *rewinder) Iterate() {
	if r.lost {
		r.t.Errorf("Iterate while iteration %d is lost", r.iter)
	}
	r.iter++
	if r.losePass[r.iter] {
		delete(r.losePass, r.iter)
		r.lost = true
		if r.stopAt == r.iter {
			close(r.stop)
		}
	}
}

// read checks and applies a state read at the current iteration.
func (r *rewinder) read(what string, lose map[int]bool) {
	if r.lost {
		r.t.Errorf("%s at iteration %d, which is lost", what, r.iter)
	}
	if lose[r.iter] {
		delete(lose, r.iter)
		r.lost = true
	}
}

func (r *rewinder) Assignments() [][]int32 {
	r.read("Assignments", r.loseRead)
	for d, doc := range r.z {
		for n := range doc {
			doc[n] = int32((d + 3*n + r.iter) % r.k)
		}
	}
	return r.z
}

func (r *rewinder) ShardTo(_ int, w io.Writer) error {
	r.read("ShardTo", r.loseShard)
	if r.lost {
		return errors.New("shard lost")
	}
	r.written = append(r.written, r.iter)
	e := sampler.NewEnc(w)
	e.Int(r.iter)
	return e.Err()
}

func (r *rewinder) RestoreShards(iter int, shards []io.Reader) error {
	d := sampler.NewDec(shards[0])
	got := d.Int()
	if err := d.Err(); err != nil {
		return err
	}
	if got != iter {
		return fmt.Errorf("shard holds iteration %d, restoring %d", got, iter)
	}
	r.iter, r.lost = iter, false
	return nil
}

// TestRewindReplaysUninterruptedRun: a pass or a state read that a
// sampler.Rewinder reports lost sends train.Run back to the newest
// checkpoint — mid-interval, before the first periodic checkpoint (to
// the initial one), before an evaluation, during an evaluation or a
// checkpoint write — and
// the run ends with the trace, iteration, checkpoints and newest
// checkpoint of a run that lost nothing. A stop during a lost pass
// writes no checkpoint: the run ends at the newest one, as a run of
// that many iterations does.
func TestRewindReplaysUninterruptedRun(t *testing.T) {
	c := testCorpus(48)
	cfg := testCfg(8)
	const iters = 12
	run := func(t *testing.T, iters int, set func(r *rewinder)) (train.Result, string, []int) {
		t.Helper()
		r := newRewinder(t, c, cfg.K)
		set(r)
		dir := t.TempDir()
		res, err := train.Run(r, c, cfg, train.Options{
			Iters: iters, EvalEvery: 4, CheckpointDir: dir, CheckpointEvery: 4, CheckpointKeep: 100, Stop: r.stop,
		})
		if err != nil {
			t.Fatal(err)
		}
		if r.iter != res.Iter || r.lost {
			t.Fatalf("sampler at iteration %d (lost %v), result at %d", r.iter, r.lost, res.Iter)
		}
		if n := len(r.losePass) + len(r.loseRead) + len(r.loseShard); n != 0 {
			t.Fatalf("%d faults never fired", n)
		}
		return res, dir, r.written
	}
	for _, tc := range []struct {
		name   string
		iters  int // of the run that loses nothing
		faults func(r *rewinder)
	}{
		{"lost pass mid-interval", iters, func(r *rewinder) { r.losePass = map[int]bool{6: true} }},
		{"lost pass before the first periodic checkpoint", iters, func(r *rewinder) { r.losePass = map[int]bool{2: true} }},
		{"lost pass due an evaluation", iters, func(r *rewinder) { r.losePass = map[int]bool{8: true} }},
		{"lost evaluation read", iters, func(r *rewinder) { r.loseRead = map[int]bool{8: true} }},
		{"lost checkpoint write", iters, func(r *rewinder) { r.loseShard = map[int]bool{8: true} }},
		{"stop during a lost pass", 4, func(r *rewinder) { r.losePass, r.stopAt = map[int]bool{6: true}, 6 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, wantDir, wantWritten := run(t, tc.iters, func(*rewinder) {})
			got, gotDir, gotWritten := run(t, iters, tc.faults)
			if !reflect.DeepEqual(gotWritten, wantWritten) {
				t.Fatalf("wrote shards at iterations %v, want %v", gotWritten, wantWritten)
			}
			if got.Iter != want.Iter {
				t.Fatalf("ended at iteration %d, want %d", got.Iter, want.Iter)
			}
			sameTrace(t, got.Run, want.Run)
			if filepath.Base(got.CheckpointPath) != filepath.Base(want.CheckpointPath) {
				t.Fatalf("last checkpoint %s, want %s", got.CheckpointPath, want.CheckpointPath)
			}
			iterOf := func(dir string) []int {
				entries, err := train.ListCheckpoints(dir)
				if err != nil {
					t.Fatal(err)
				}
				var out []int
				for _, e := range entries {
					out = append(out, e.Iter)
				}
				return out
			}
			if g, w := iterOf(gotDir), iterOf(wantDir); !reflect.DeepEqual(g, w) {
				t.Fatalf("checkpoints at iterations %v, want %v", g, w)
			}
			gotCk, err := train.Load(gotDir)
			if err != nil {
				t.Fatal(err)
			}
			wantCk, err := train.Load(wantDir)
			if err != nil {
				t.Fatal(err)
			}
			if gotCk.Iter != wantCk.Iter || !reflect.DeepEqual(gotCk.ShardCRCs, wantCk.ShardCRCs) {
				t.Fatalf("newest checkpoint at %d with shards %v, want %d with %v", gotCk.Iter, gotCk.ShardCRCs, wantCk.Iter, wantCk.ShardCRCs)
			}
			sameTrace(t, gotCk.Trace, wantCk.Trace)
		})
	}
}
