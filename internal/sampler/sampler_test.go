package sampler

import (
	"bytes"
	"io"
	"runtime"
	"testing"
	"time"

	"warplda/internal/corpus"
)

// fakeSampler deterministically improves its assignment quality each
// iteration so trainer bookkeeping can be verified exactly.
type fakeSampler struct {
	c     *corpus.Corpus
	z     [][]int32
	iters int
}

func newFake(c *corpus.Corpus) *fakeSampler {
	z := make([][]int32, len(c.Docs))
	for d, doc := range c.Docs {
		z[d] = make([]int32, len(doc))
		for n := range doc {
			// Scattered start: each topic sees all words uniformly
			// ((n/2+d)%2 is independent of word identity n%4 across docs).
			z[d][n] = int32((n/2 + d) % 2)
		}
	}
	return &fakeSampler{c: c, z: z}
}

func (f *fakeSampler) Name() string { return "fake" }

func (f *fakeSampler) Iterate() {
	f.iters++
	// Move one more token position per iteration to the word-pure
	// clustering (topic = word parity): slow, monotone improvement.
	for d := range f.z {
		for n := range f.z[d] {
			if n < f.iters {
				f.z[d][n] = f.c.Docs[d][n] % 2
			}
		}
	}
}

func (f *fakeSampler) Assignments() [][]int32 { return f.z }

func (f *fakeSampler) StateTo(w io.Writer) error {
	e := NewEnc(w)
	e.Tag("fake\x01")
	e.Int(f.iters)
	e.I32Mat(f.z)
	return e.Err()
}

func (f *fakeSampler) RestoreFrom(r io.Reader) error {
	d := NewDec(r)
	d.Tag("fake\x01")
	iters := d.Int()
	z := d.I32Mat("z")
	if err := d.Err(); err != nil {
		return err
	}
	f.iters = iters
	f.z = z
	return nil
}

var _ Sampler = (*fakeSampler)(nil)

func fakeCorpus() *corpus.Corpus {
	c := &corpus.Corpus{V: 4, Docs: make([][]int32, 8)}
	for d := range c.Docs {
		doc := make([]int32, 30)
		for n := range doc {
			doc[n] = int32(n % 4)
		}
		c.Docs[d] = doc
	}
	return c
}

func TestValidate(t *testing.T) {
	good := PaperDefaults(10)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []Config{
		{K: 0, Alpha: 1, Beta: 1},
		{K: 5, Alpha: 0, Beta: 1},
		{K: 5, Alpha: 1, Beta: 0},
		{K: 5, Alpha: 1, Beta: 1, M: -1},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("config %+v accepted", bad)
		}
	}
}

func TestPaperDefaults(t *testing.T) {
	cfg := PaperDefaults(50)
	if cfg.Alpha != 1.0 || cfg.Beta != 0.01 || cfg.K != 50 {
		t.Fatalf("PaperDefaults(50) = %+v", cfg)
	}
	if cfg2 := PaperDefaults(1000); cfg2.Alpha != 0.05 {
		t.Fatalf("alpha for K=1000 = %g, want 50/K", cfg2.Alpha)
	}
}

func TestTrainRecordsPoints(t *testing.T) {
	c := fakeCorpus()
	cfg := PaperDefaults(2)
	run := Train(newFake(c), c, cfg, 7, 3)
	// Evaluations at iters 3, 6, 7.
	if len(run.Points) != 3 {
		t.Fatalf("points = %d, want 3", len(run.Points))
	}
	wantIters := []int{3, 6, 7}
	for i, p := range run.Points {
		if p.Iter != wantIters[i] {
			t.Fatalf("point %d at iter %d, want %d", i, p.Iter, wantIters[i])
		}
		if p.LogLik >= 0 {
			t.Fatalf("logLik %g not negative", p.LogLik)
		}
		if i > 0 && p.Elapsed < run.Points[i-1].Elapsed {
			t.Fatal("elapsed time went backwards")
		}
	}
	if run.Sampler != "fake" {
		t.Fatalf("run.Sampler = %q", run.Sampler)
	}
}

func TestTrainEvalEveryDefaults(t *testing.T) {
	c := fakeCorpus()
	run := Train(newFake(c), c, PaperDefaults(2), 3, 0)
	if len(run.Points) != 3 {
		t.Fatalf("evalEvery=0 should evaluate every iteration, got %d points", len(run.Points))
	}
}

func TestReachHelpers(t *testing.T) {
	run := Run{Points: []Point{
		{Iter: 2, Elapsed: time.Second, LogLik: -100},
		{Iter: 4, Elapsed: 2 * time.Second, LogLik: -50},
		{Iter: 6, Elapsed: 3 * time.Second, LogLik: -20},
	}}
	if got := run.IterToReach(-60); got != 4 {
		t.Fatalf("IterToReach(-60) = %d, want 4", got)
	}
	if got := run.TimeToReach(-60); got != 2*time.Second {
		t.Fatalf("TimeToReach(-60) = %v", got)
	}
	if got := run.IterToReach(-1); got != -1 {
		t.Fatalf("unreachable level: %d", got)
	}
	if got := run.TimeToReach(-1); got != -1 {
		t.Fatalf("unreachable level time: %v", got)
	}
	if run.Final().Iter != 6 {
		t.Fatalf("Final() = %+v", run.Final())
	}
	if (Run{}).Final() != (Point{}) {
		t.Fatal("empty run Final not zero")
	}
}

func TestCopyAssignments(t *testing.T) {
	z := [][]int32{{1, 2}, {3}}
	cp := CopyAssignments(z)
	cp[0][0] = 99
	if z[0][0] != 1 {
		t.Fatal("copy aliases original")
	}
	if len(cp) != 2 || len(cp[1]) != 1 || cp[1][0] != 3 {
		t.Fatalf("bad copy %v", cp)
	}
}

func TestLoopResumeMatchesUninterrupted(t *testing.T) {
	c := fakeCorpus()
	cfg := PaperDefaults(2)

	full := Train(newFake(c), c, cfg, 10, 3)

	// Interrupted run: 5 iterations, snapshot, restore into a fresh
	// sampler, resume the loop for the remaining 5.
	half := NewLoop(newFake(c), c, cfg, 3)
	for half.Iter < 5 {
		half.Step()
		half.Eval()
	}
	var buf bytes.Buffer
	if err := half.Sampler.(*fakeSampler).StateTo(&buf); err != nil {
		t.Fatal(err)
	}
	fresh := newFake(c)
	if err := fresh.RestoreFrom(&buf); err != nil {
		t.Fatal(err)
	}
	resumed := NewLoop(fresh, c, cfg, 3)
	resumed.Iters = 10
	resumed.SetProgress(half.Iter, half.Elapsed, half.Trace)
	for resumed.Iter < 10 {
		resumed.Step()
		resumed.Eval()
	}

	if len(resumed.Trace.Points) != len(full.Points) {
		t.Fatalf("resumed trace has %d points, want %d", len(resumed.Trace.Points), len(full.Points))
	}
	for i, p := range resumed.Trace.Points {
		if p.Iter != full.Points[i].Iter || p.LogLik != full.Points[i].LogLik {
			t.Fatalf("point %d: (iter %d, ll %v), want (iter %d, ll %v)",
				i, p.Iter, p.LogLik, full.Points[i].Iter, full.Points[i].LogLik)
		}
	}
}

func TestLoopEvalNeverDuplicates(t *testing.T) {
	c := fakeCorpus()
	l := NewLoop(newFake(c), c, PaperDefaults(2), 2)
	l.Iters = 2
	l.Step()
	l.Step()
	if _, ok := l.Eval(); !ok {
		t.Fatal("eval due at iter 2 not recorded")
	}
	// The last iteration, already evaluated, must not be evaluated again.
	if _, ok := l.Eval(); ok {
		t.Fatal("iteration evaluated twice")
	}
	if len(l.Trace.Points) != 1 {
		t.Fatalf("trace has %d points, want 1", len(l.Trace.Points))
	}
}

func TestIntervalThroughputRecorded(t *testing.T) {
	c := fakeCorpus()
	run := Train(newFake(c), c, PaperDefaults(2), 6, 3)
	for i, p := range run.Points {
		if p.TokensSec <= 0 || p.IntervalTokensSec <= 0 {
			t.Fatalf("point %d: TokensSec %g IntervalTokensSec %g, want both > 0",
				i, p.TokensSec, p.IntervalTokensSec)
		}
	}
}

func TestStateCodecRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	e := NewEnc(&buf)
	e.Tag("test\x01")
	e.Int(42)
	e.U64(7)
	e.F64(3.5)
	e.I32s([]int32{1, 2, 3})
	e.F64s([]float64{0.5, -1})
	e.F32s([]float32{2.25})
	e.I32Mat([][]int32{{9}, nil, {8, 7}})
	if err := e.Err(); err != nil {
		t.Fatal(err)
	}
	d := NewDec(&buf)
	d.Tag("test\x01")
	if got := d.Int(); got != 42 {
		t.Fatalf("Int = %d", got)
	}
	if got := d.U64(); got != 7 {
		t.Fatalf("U64 = %d", got)
	}
	if got := d.F64(); got != 3.5 {
		t.Fatalf("F64 = %g", got)
	}
	if got := d.I32sLen("a", 3); len(got) != 3 || got[2] != 3 {
		t.Fatalf("I32sLen = %v", got)
	}
	if got := d.F64s("b"); len(got) != 2 || got[1] != -1 {
		t.Fatalf("F64s = %v", got)
	}
	if got := d.F32sLen("c", 1); len(got) != 1 || got[0] != 2.25 {
		t.Fatalf("F32sLen = %v", got)
	}
	if got := d.I32Mat("d"); len(got) != 3 || len(got[2]) != 2 || got[2][1] != 7 {
		t.Fatalf("I32Mat = %v", got)
	}
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestStateCodecRejectsCorruption(t *testing.T) {
	encode := func() []byte {
		var buf bytes.Buffer
		e := NewEnc(&buf)
		e.Tag("test\x01")
		e.I32s([]int32{1, 2, 3})
		return buf.Bytes()
	}
	t.Run("wrong tag", func(t *testing.T) {
		d := NewDec(bytes.NewReader(encode()))
		d.Tag("oops\x01")
		if d.Err() == nil {
			t.Fatal("wrong tag accepted")
		}
	})
	t.Run("wrong length", func(t *testing.T) {
		d := NewDec(bytes.NewReader(encode()))
		d.Tag("test\x01")
		d.I32sLen("z", 4)
		if d.Err() == nil {
			t.Fatal("length mismatch accepted")
		}
	})
	t.Run("truncated", func(t *testing.T) {
		b := encode()
		d := NewDec(bytes.NewReader(b[:len(b)-2]))
		d.Tag("test\x01")
		d.I32sLen("z", 3)
		if d.Err() == nil {
			t.Fatal("truncated stream accepted")
		}
	})
	t.Run("topic range", func(t *testing.T) {
		d := NewDec(bytes.NewReader(encode()))
		d.Tag("test\x01")
		z := d.I32sLen("z", 3)
		d.CheckTopics("z", z, 3)
		if d.Err() == nil {
			t.Fatal("out-of-range topic accepted")
		}
	})
}

func TestTrainImprovesOnFake(t *testing.T) {
	c := fakeCorpus()
	run := Train(newFake(c), c, PaperDefaults(2), 12, 4)
	first, last := run.Points[0].LogLik, run.Final().LogLik
	if last <= first {
		t.Fatalf("concentrating assignments did not raise LL: %g -> %g", first, last)
	}
}

// Every length-prefixed slice read grows with the bytes actually
// present: a 2³¹−1 prefix over 16 bytes of data — a corrupt checkpoint
// before its checksum is checked, or a wire payload no checksum
// authenticates — fails at the end of the input having allocated one
// chunk of the widest element type and its decode buffer (1 MiB), not
// 8–16 GiB at make().
func TestDecHostileLengthAllocatesLittle(t *testing.T) {
	const claim = 1<<31 - 1
	for name, read := range map[string]func(d *Dec){
		"I32s":    func(d *Dec) { d.I32s("x") },
		"I32sLen": func(d *Dec) { d.I32sLen("x", claim) },
		"F64s":    func(d *Dec) { d.F64s("x") },
		"F64sLen": func(d *Dec) { d.F64sLen("x", claim) },
		"F32sLen": func(d *Dec) { d.F32sLen("x", claim) },
		"I32Mat":  func(d *Dec) { d.I32Mat("x") },
	} {
		t.Run(name, func(t *testing.T) {
			var in bytes.Buffer
			e := NewEnc(&in)
			e.Int(claim)
			e.Int(1)
			e.Int(2)
			d := NewDec(bytes.NewReader(in.Bytes()))
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			read(d)
			runtime.ReadMemStats(&after)
			if d.Err() == nil {
				t.Fatal("24-byte input with a 2³¹−1 length prefix accepted")
			}
			if got := after.TotalAlloc - before.TotalAlloc; got >= 2<<20 {
				t.Fatalf("allocated %d bytes, want < 2 MiB", got)
			}
		})
	}
}
