package warplda

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"warplda/internal/train"
)

func testModelForPublish(t *testing.T, seed int64) *Model {
	t.Helper()
	cfg := Defaults(4)
	c, err := GenerateLDA(SyntheticConfig{D: 30, V: 40, K: 4, MeanLen: 20, Seed: uint64(seed)})
	if err != nil {
		t.Fatal(err)
	}
	m, err := Train(c, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestDeltaPublisherLifecycle(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "news")
	pub, err := NewDeltaPublisher(spec, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	m := testModelForPublish(t, 1)

	// First publish: full base snapshot + latest pointer, no deltas.
	r1, err := pub.Publish(m, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !r1.Full {
		t.Fatalf("first publish not full: %+v", r1)
	}
	if _, err := os.Stat(filepath.Join(dir, "news@10.bin")); err != nil {
		t.Fatalf("versioned snapshot missing: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "news.bin")); err != nil {
		t.Fatalf("latest pointer missing: %v", err)
	}

	// Two interval publishes ride the chain.
	m.Cw[0]++
	m.Ck[0]++
	r2, err := pub.Publish(m, 20)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Full || r2.Gen != 1 || r2.Cells != 1 {
		t.Fatalf("second publish: %+v", r2)
	}
	m.Cw[1]++
	m.Ck[1]++
	r3, err := pub.Publish(m, 30)
	if err != nil {
		t.Fatal(err)
	}
	if r3.Full || r3.Gen != 2 {
		t.Fatalf("third publish: %+v", r3)
	}
	if files, _ := train.ListDeltaFiles(dir, "news"); len(files) != 2 {
		t.Fatalf("expected 2 delta files, found %d", len(files))
	}

	// MaxChain = 2 reached: the next publish rebases — deltas removed,
	// fresh base installed, chain restarted.
	m.Cw[2]++
	m.Ck[2]++
	r4, err := pub.Publish(m, 40)
	if err != nil {
		t.Fatal(err)
	}
	if !r4.Full {
		t.Fatalf("fourth publish did not rebase: %+v", r4)
	}
	if files, _ := train.ListDeltaFiles(dir, "news"); len(files) != 0 {
		t.Fatalf("rebase left %d delta files behind", len(files))
	}
	if _, err := os.Stat(filepath.Join(dir, "news@40.bin")); err != nil {
		t.Fatalf("rebased snapshot missing: %v", err)
	}
	m.Cw[3]++
	m.Ck[3]++
	r5, err := pub.Publish(m, 50)
	if err != nil {
		t.Fatal(err)
	}
	if r5.Full || r5.Gen != 1 {
		t.Fatalf("post-rebase publish: %+v", r5)
	}
}

func TestDeltaPublisherRejectsBadSpec(t *testing.T) {
	if _, err := NewDeltaPublisher("", 0, 0); err == nil {
		t.Fatal("NewDeltaPublisher accepted an empty spec")
	}
	if _, err := NewDeltaPublisher(filepath.Join(t.TempDir(), "bad name!"), 0, 0); err == nil {
		t.Fatal("NewDeltaPublisher accepted an unservable name")
	}
	if _, err := NewDeltaPublisher(filepath.Join(t.TempDir(), "news"), -1, 0); err == nil {
		t.Fatal("NewDeltaPublisher accepted a negative chain length")
	}
}

// TestFullPublisher pins chain length 0, the -publish mode of both
// binaries: every Publish is a base publish — versioned snapshot,
// latest pointer, pruning — into a directory the publisher creates.
func TestFullPublisher(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "models", "fresh")
	spec := filepath.Join(dir, "news")
	pub, err := NewDeltaPublisher(spec, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	m := testModelForPublish(t, 1)
	for _, iter := range []int{10, 20, 30} {
		m.Cw[iter/10]++
		m.Ck[iter/10]++
		r, err := pub.Publish(m, iter)
		if err != nil {
			t.Fatal(err)
		}
		want := filepath.Join(dir, fmt.Sprintf("news@%d.bin", iter))
		if !r.Full || r.Path != want || r.Gen != 0 || r.Cells != 0 {
			t.Fatalf("publish at %d = %+v, want a full publish of %s", iter, r, want)
		}
		lf, err := os.Open(filepath.Join(dir, "news.bin"))
		if err != nil {
			t.Fatal(err)
		}
		latest, err := ReadModel(lf)
		lf.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(latest.Cw, m.Cw) {
			t.Fatalf("latest after the publish at %d does not hold its counts", iter)
		}
		if files, _ := train.ListDeltaFiles(dir, "news"); len(files) != 0 {
			t.Fatalf("full publish at %d wrote %d delta files", iter, len(files))
		}
	}
	// keep = 2: the newest two versions survive, the oldest is pruned.
	for iter, want := range map[int]bool{10: false, 20: true, 30: true} {
		_, err := os.Stat(filepath.Join(dir, fmt.Sprintf("news@%d.bin", iter)))
		if got := err == nil; got != want {
			t.Errorf("news@%d.bin present = %v, want %v", iter, got, want)
		}
	}
}
