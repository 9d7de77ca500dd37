package registry

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"warplda"
	"warplda/internal/train"
)

// perturbModel returns a copy of m with n count cells bumped and Ck
// recomputed — a stand-in for one checkpoint interval of training.
func perturbModel(t *testing.T, m *warplda.Model, n int) *warplda.Model {
	t.Helper()
	k := m.Cfg.K
	nm := &warplda.Model{
		Cfg: m.Cfg, V: m.V, Vocab: m.Vocab,
		Cw:     append([]int32(nil), m.Cw...),
		Ck:     make([]int64, k),
		LogLik: m.LogLik + 1,
	}
	for i := 0; i < n; i++ {
		nm.Cw[(i*7)%len(nm.Cw)]++
	}
	for w := 0; w < nm.V; w++ {
		for tt := 0; tt < k; tt++ {
			nm.Ck[tt] += int64(nm.Cw[w*k+tt])
		}
	}
	return nm
}

// publishDelta writes the delta advancing prev→next as generation gen
// of model name in dir, using the production writer.
func publishDelta(t *testing.T, dir, name string, prev, next *warplda.Model, gen int64) string {
	t.Helper()
	dc, err := train.NewDeltaChain(filepath.Join(dir, name), prev.V, prev.Cfg.K, prev.Cw, prev.Ck)
	if err != nil {
		t.Fatal(err)
	}
	for g := int64(1); g < gen; g++ {
		// Advance the chain with no-op links so the file lands at gen.
		if _, err := dc.Publish(prev.Cw, prev.Ck, int64(g), prev.LogLik); err != nil {
			t.Fatal(err)
		}
	}
	r, err := dc.Publish(next.Cw, next.Ck, 100+gen, next.LogLik)
	if err != nil {
		t.Fatal(err)
	}
	return r.Path
}

func TestPollerFoldsDeltaChain(t *testing.T) {
	dir, r := openTestRegistry(t, Options{})
	m0 := tinyModel(t, 3, 1)
	writeModel(t, filepath.Join(dir, "news.bin"), m0)

	s0, err := r.Acquire("news")
	if err != nil {
		t.Fatal(err)
	}
	if s0.Version != 1 {
		t.Fatalf("base Version = %d", s0.Version)
	}

	// Two chained deltas; the poller folds both in one sweep.
	m1 := perturbModel(t, m0, 5)
	m2 := perturbModel(t, m1, 9)
	dc, err := train.NewDeltaChain(filepath.Join(dir, "news"), m0.V, m0.Cfg.K, m0.Cw, m0.Ck)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dc.Publish(m1.Cw, m1.Ck, 20, m1.LogLik); err != nil {
		t.Fatal(err)
	}
	if _, err := dc.Publish(m2.Cw, m2.Ck, 30, m2.LogLik); err != nil {
		t.Fatal(err)
	}
	r.pollOnce()

	s2, err := r.Acquire("news")
	if err != nil {
		t.Fatal(err)
	}
	if s2.Version != 3 {
		t.Fatalf("after 2 folds Version = %d, want 3", s2.Version)
	}
	if !reflect.DeepEqual(s2.Model.Cw, m2.Cw) || !reflect.DeepEqual(s2.Model.Ck, m2.Ck) {
		t.Fatal("folded model counts do not match the published state")
	}
	if s2.Model.LogLik != m2.LogLik {
		t.Fatalf("folded LogLik %v, want %v", s2.Model.LogLik, m2.LogLik)
	}

	// The folded engine answers identically to one built cold from the
	// full snapshot.
	fresh, err := warplda.NewInferEngine(m2, warplda.InferOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(0); seed < 3; seed++ {
		doc := []int32{1, 5, 9, 30}
		a, err := s2.Engine.Infer(doc, 5, seed)
		if err != nil {
			t.Fatal(err)
		}
		b, err := fresh.Infer(doc, 5, seed)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: folded %v != fresh %v", seed, a, b)
		}
	}

	mi, ok := r.Info("news")
	if !ok || mi.Generation != 2 {
		t.Fatalf("Info generation = %d (ok=%v), want 2", mi.Generation, ok)
	}
	st := r.RegistryStats()
	if st.DeltasApplied != 2 || st.DeltaRejected != 0 {
		t.Fatalf("stats = %+v, want 2 applied / 0 rejected", st)
	}
	if st.WordsRebuilt <= 0 {
		t.Fatalf("WordsRebuilt = %d, want > 0", st.WordsRebuilt)
	}

	// Idle re-poll: nothing new, nothing re-folded.
	r.pollOnce()
	if st2 := r.RegistryStats(); st2.DeltasApplied != 2 {
		t.Fatalf("idle poll re-applied deltas: %+v", st2)
	}
}

func TestBaseReloadResetsChain(t *testing.T) {
	dir, r := openTestRegistry(t, Options{})
	m0 := tinyModel(t, 3, 1)
	path := filepath.Join(dir, "news.bin")
	writeModel(t, path, m0)
	if _, err := r.Acquire("news"); err != nil {
		t.Fatal(err)
	}
	m1 := perturbModel(t, m0, 4)
	publishDelta(t, dir, "news", m0, m1, 1)
	r.pollOnce()
	if mi, _ := r.Info("news"); mi.Generation != 1 {
		t.Fatalf("generation = %d, want 1", mi.Generation)
	}

	// A rebase: deltas removed first, then a fresh base file.
	if _, err := train.RemoveDeltaFiles(filepath.Join(dir, "news")); err != nil {
		t.Fatal(err)
	}
	m2 := tinyModel(t, 3, 9)
	writeModel(t, path, m2)
	r.pollOnce()
	mi, _ := r.Info("news")
	if mi.Generation != 0 {
		t.Fatalf("post-rebase generation = %d, want 0", mi.Generation)
	}
	snap, err := r.Acquire("news")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap.Model.Cw, m2.Cw) {
		t.Fatal("post-rebase snapshot is not the new base")
	}
}

// TestDeltaFaultInjection is the fault table of ISSUE 10: every broken
// delta file is rejected with the served model untouched, the
// delta_rejected stat incremented exactly once (negative cache), and
// last_error naming the failure.
func TestDeltaFaultInjection(t *testing.T) {
	m0 := tinyModel(t, 3, 1)
	m1 := perturbModel(t, m0, 5)

	cases := []struct {
		name    string
		install func(t *testing.T, dir string)
		wantErr string
	}{
		{
			name: "truncated",
			install: func(t *testing.T, dir string) {
				p := publishDelta(t, dir, "news", m0, m1, 1)
				b, err := os.ReadFile(p)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(p, b[:len(b)/2], 0o644); err != nil {
					t.Fatal(err)
				}
			},
			wantErr: "delta news.dlt.1",
		},
		{
			name: "bit-flipped",
			install: func(t *testing.T, dir string) {
				p := publishDelta(t, dir, "news", m0, m1, 1)
				b, err := os.ReadFile(p)
				if err != nil {
					t.Fatal(err)
				}
				b[len(b)/2] ^= 0x20
				if err := os.WriteFile(p, b, 0o644); err != nil {
					t.Fatal(err)
				}
			},
			wantErr: "checksum mismatch",
		},
		{
			name: "foreign fingerprint",
			install: func(t *testing.T, dir string) {
				// A delta diffed against a different base model entirely.
				foreign := tinyModel(t, 3, 42)
				publishDelta(t, dir, "news", foreign, perturbModel(t, foreign, 5), 1)
			},
			wantErr: "base fingerprint",
		},
		{
			name: "gap generation",
			install: func(t *testing.T, dir string) {
				// Generation 2 renamed to .dlt.1: header and name disagree.
				p2 := publishDelta(t, dir, "news", m0, m1, 2)
				p1 := filepath.Join(dir, "news.dlt.1")
				os.Remove(p1)
				if err := os.Rename(p2, p1); err != nil {
					t.Fatal(err)
				}
			},
			wantErr: "header generation 2",
		},
		{
			name: "stale base",
			install: func(t *testing.T, dir string) {
				// Leftover delta from before a rebase: diffed against a
				// previous base the registry no longer serves.
				old := tinyModel(t, 3, 7)
				publishDelta(t, dir, "news", old, perturbModel(t, old, 3), 1)
			},
			wantErr: "base fingerprint",
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir, r := openTestRegistry(t, Options{})
			writeModel(t, filepath.Join(dir, "news.bin"), m0)
			s0, err := r.Acquire("news")
			if err != nil {
				t.Fatal(err)
			}
			doc := []int32{1, 5, 9}
			before, err := s0.Engine.Infer(doc, 5, 3)
			if err != nil {
				t.Fatal(err)
			}

			tc.install(t, dir)
			r.pollOnce()

			st := r.RegistryStats()
			if st.DeltaRejected != 1 {
				t.Fatalf("DeltaRejected = %d, want 1", st.DeltaRejected)
			}
			if st.DeltasApplied != 0 {
				t.Fatalf("DeltasApplied = %d, want 0", st.DeltasApplied)
			}
			mi, _ := r.Info("news")
			if mi.Generation != 0 {
				t.Fatalf("generation = %d, want 0", mi.Generation)
			}
			if !strings.Contains(mi.LastError, tc.wantErr) {
				t.Fatalf("last_error %q does not mention %q", mi.LastError, tc.wantErr)
			}

			// Served model untouched: same snapshot, same answers.
			s1, err := r.Acquire("news")
			if err != nil {
				t.Fatal(err)
			}
			if s1 != s0 {
				t.Fatal("rejected delta swapped the snapshot")
			}
			after, err := s1.Engine.Infer(doc, 5, 3)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(before, after) {
				t.Fatal("rejected delta changed inference results")
			}

			// Negative cache: the unchanged bad file costs ONE rejection,
			// not one per tick.
			r.pollOnce()
			r.pollOnce()
			if st := r.RegistryStats(); st.DeltaRejected != 1 {
				t.Fatalf("DeltaRejected grew to %d on idle re-polls", st.DeltaRejected)
			}
		})
	}
}

func TestRejectedDeltaRecoversWhenFileReplaced(t *testing.T) {
	dir, r := openTestRegistry(t, Options{})
	m0 := tinyModel(t, 3, 1)
	writeModel(t, filepath.Join(dir, "news.bin"), m0)
	if _, err := r.Acquire("news"); err != nil {
		t.Fatal(err)
	}

	// Install garbage as generation 1; it is rejected.
	bad := filepath.Join(dir, "news.dlt.1")
	if err := os.WriteFile(bad, []byte("WARPDLT\x01junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	r.pollOnce()
	if st := r.RegistryStats(); st.DeltaRejected != 1 {
		t.Fatalf("DeltaRejected = %d, want 1", st.DeltaRejected)
	}

	// The trainer replaces it with a valid delta: next poll folds it
	// and clears the error.
	m1 := perturbModel(t, m0, 5)
	os.Remove(bad)
	publishDelta(t, dir, "news", m0, m1, 1)
	r.pollOnce()
	mi, _ := r.Info("news")
	if mi.Generation != 1 {
		t.Fatalf("generation = %d, want 1 after recovery", mi.Generation)
	}
	if mi.LastError != "" {
		t.Fatalf("last_error survived recovery: %q", mi.LastError)
	}
	if st := r.RegistryStats(); st.DeltasApplied != 1 {
		t.Fatalf("DeltasApplied = %d, want 1", st.DeltasApplied)
	}
}

// A delta whose folded model no longer fits the byte budget is
// rejected once: the base keeps serving and idle polls neither re-read
// nor re-count it.
func TestOverBudgetDeltaRejectedOnce(t *testing.T) {
	m0 := tinyModel(t, 16, 1)
	// Fill every empty cell: each word's alias table grows to K
	// outcomes, so the folded engine outgrows the base's bytes.
	m1 := perturbModel(t, m0, 0)
	for i, c := range m1.Cw {
		if c == 0 {
			m1.Cw[i] = 1
			m1.Ck[i%m1.Cfg.K]++
		}
	}
	dir, r := openTestRegistry(t, Options{MaxBytes: snapshotBytes(t, m0)})
	writeModel(t, filepath.Join(dir, "news.bin"), m0)
	s0, err := r.Acquire("news")
	if err != nil {
		t.Fatal(err)
	}
	publishDelta(t, dir, "news", m0, m1, 1)

	for i := 0; i < 3; i++ {
		r.pollOnce()
	}
	st := r.RegistryStats()
	if st.DeltaRejected != 1 || st.DeltasApplied != 0 {
		t.Fatalf("stats = %+v, want 1 rejected / 0 applied", st)
	}
	s1, err := r.Acquire("news")
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s0 {
		t.Fatal("over-budget delta swapped the snapshot")
	}
	if mi, _ := r.Info("news"); mi.Generation != 0 || !strings.Contains(mi.LastError, "budget") {
		t.Fatalf("info = %+v, want generation 0 and a last_error naming the budget", mi)
	}
}

// TestFullPublishClearsStaleChain: a full publish into a target that a
// delta-mode writer left a chain in must serve exactly the full
// snapshot. Here the chain's delta is valid against the republished
// state, so a registry that found it would fold it silently.
func TestFullPublishClearsStaleChain(t *testing.T) {
	dir, r := openTestRegistry(t, Options{})
	spec := filepath.Join(dir, "news")
	full, err := warplda.NewDeltaPublisher(spec, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	chained, err := warplda.NewDeltaPublisher(spec, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	m0 := tinyModel(t, 3, 1)
	if _, err := full.Publish(m0, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Acquire("news"); err != nil {
		t.Fatal(err)
	}

	// A delta-mode writer: a base, then one delta.
	if res, err := chained.Publish(m0, 20); err != nil || !res.Full {
		t.Fatalf("chained base publish = %+v, %v", res, err)
	}
	if res, err := chained.Publish(perturbModel(t, m0, 5), 30); err != nil || res.Full {
		t.Fatalf("chained delta publish = %+v, %v", res, err)
	}

	// The full publisher installs the base's state again.
	if res, err := full.Publish(m0, 40); err != nil || !res.Full {
		t.Fatalf("full publish = %+v, %v", res, err)
	}
	r.pollOnce()

	snap, err := r.Acquire("news")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap.Model.Cw, m0.Cw) || !reflect.DeepEqual(snap.Model.Ck, m0.Ck) {
		t.Fatal("served counts differ from the full publish")
	}
	st := r.RegistryStats()
	if st.DeltasApplied != 0 || st.DeltaRejected != 0 {
		t.Fatalf("stats = %+v, want 0 applied / 0 rejected", st)
	}
	if mi, _ := r.Info("news"); mi.LastError != "" || mi.Generation != 0 {
		t.Fatalf("info = %+v, want generation 0 and no last_error", mi)
	}
	if files, _ := train.ListDeltaFiles(dir, "news"); len(files) != 0 {
		t.Fatalf("%d delta files survived the full publish", len(files))
	}
}
