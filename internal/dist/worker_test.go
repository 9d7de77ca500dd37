package dist

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"warplda/internal/cluster"
	"warplda/internal/train"
)

// A worker puts each received token at its (key, sender) offset as it
// decodes the Block; hostile traffic must fail the phase and write
// nothing out of place. The peer plays the coordinator for one word
// phase of slot 1 of testAssign: it takes the worker's own blocks and
// PhaseDone, then sends the case's blocks from sender 0 and the
// barrier. Every token it sends is of a word of sender 0 and carries a
// sentinel payload, so such tokens in the worker's next slab are
// exactly the ones it put.
func TestWorkerRefusesHostileBlocks(t *testing.T) {
	a, ck := testAssign(t)
	sentinel := make([]int32, a.M+1)
	for i := range sentinel {
		sentinel[i] = int32(a.K - 1)
	}
	var foreignDoc, word0 int32 = -1, -1
	for d, o := range a.Rows {
		if o == 0 && foreignDoc < 0 {
			foreignDoc = int32(d)
		}
	}
	for w, o := range a.Cols {
		if o == 0 && word0 < 0 {
			word0 = int32(w)
		}
	}
	// The first document of slot 1 that sender 0 sends tokens of, and
	// how many.
	var doc, n int32 = -1, 0
	rank := 0
	for d, o := range a.Rows {
		if o != 1 {
			continue
		}
		if c := a.DocCounts[rank*a.P]; c > 0 && doc < 0 {
			doc, n = int32(d), c
		}
		rank++
	}
	if foreignDoc < 0 || word0 < 0 || doc < 0 {
		t.Fatal("degenerate topology")
	}
	block := func(d int32, k int) []byte {
		b := &Block{Epoch: a.Epoch, Iter: a.Iter, Phase: PhaseWord, From: 0, To: 1}
		for range k {
			b.DS, b.WS = append(b.DS, d), append(b.WS, word0)
			b.Payload = append(b.Payload, sentinel...)
		}
		return b.Encode()
	}

	for _, tc := range []struct {
		name   string
		blocks [][]byte
		put    int // sentinel tokens the worker must hold after failing
	}{
		{"block naming a foreign key", [][]byte{block(foreignDoc, 1)}, 0},
		{"block overfilling its (key, sender) region", [][]byte{block(doc, int(n)+1)}, int(n)},
		{"barrier with a region unfilled", [][]byte{block(doc, int(n))}, int(n)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			conn, peer := net.Pipe()
			defer conn.Close()
			defer peer.Close()
			s := &wsession{
				wc:  WorkerConfig{ID: "w1", ReadTimeout: 10 * time.Second, WriteTimeout: 10 * time.Second, Logf: t.Logf},
				ctx: context.Background(), conn: conn,
				br: bufio.NewReader(conn), bw: bufio.NewWriter(conn),
			}
			if err := s.handleAssign(a.Encode()); err != nil {
				t.Fatal(err)
			}
			s.pass.Freeze(ck)
			held := &s.shard.D[0]

			errc := make(chan error, 1)
			go func() { errc <- s.phase(a.Iter, PhaseWord) }()
			br := bufio.NewReader(peer)
			for {
				typ, _, err := ReadFrame(br)
				if err != nil {
					t.Fatal(err)
				}
				if typ == MsgPhaseDone {
					break
				}
			}
			// Write from a goroutine: the worker stops reading at the
			// first refused frame, and closing the pipe unblocks it.
			go func() {
				var out bytes.Buffer
				for _, b := range tc.blocks {
					WriteFrame(&out, MsgBlock, b)
				}
				WriteFrame(&out, MsgBarrier, (&Sync{Epoch: a.Epoch, Iter: a.Iter, Phase: PhaseWord}).Encode())
				peer.Write(out.Bytes())
			}()
			err := <-errc
			if err == nil {
				t.Fatal("phase succeeded")
			}
			t.Log(err)
			if &s.shard.D[0] != held {
				t.Fatal("the worker adopted its next slab")
			}
			if got := sentinels(&s.inbox.Slab, word0, sentinel); got != tc.put {
				t.Fatalf("%d sentinel tokens in the next slab, want %d", got, tc.put)
			}
		})
	}
}

// sentinels counts the tokens of sh of word w whose payload is
// sentinel.
func sentinels(sh *cluster.Slab, w int32, sentinel []int32) int {
	n, s := 0, len(sentinel)
	for i := range sh.D {
		if sh.W[i] == w && slices.Equal(sh.Data[i*s:(i+1)*s], sentinel) {
			n++
		}
	}
	return n
}

// A worker a coordinator refuses — here a listener that closes every
// connection after reading the hello, as a coordinator of another
// protocol revision does — must back off between attempts and give up
// after MaxRetries, not redial at once for ever.
func TestRefusedWorkerBacksOffAndGivesUp(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var mu sync.Mutex
	var hellos []time.Time
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			if typ, _, err := ReadFrame(c); err == nil && typ == MsgHello {
				mu.Lock()
				hellos = append(hellos, time.Now())
				mu.Unlock()
			}
			c.Close()
		}
	}()
	const retries = 5
	backoff, maxBackoff := 20*time.Millisecond, 60*time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err = RunWorker(ctx, WorkerConfig{
		Coordinator: ln.Addr().String(), ID: "refused",
		RetryBackoff: backoff, MaxBackoff: maxBackoff, MaxRetries: retries,
		Logf: t.Logf,
	})
	if err == nil || ctx.Err() != nil {
		t.Fatalf("RunWorker against a refusing peer: err = %v, ctx = %v; want it to give up by itself", err, ctx.Err())
	}
	mu.Lock()
	defer mu.Unlock()
	if len(hellos) != retries {
		t.Fatalf("%d hellos, want %d (one per attempt)", len(hellos), retries)
	}
	for i := 1; i < len(hellos); i++ {
		if gap := hellos[i].Sub(hellos[i-1]); gap < backoff {
			t.Errorf("attempt %d came %v after the one before, under the %v backoff", i+1, gap, backoff)
		}
		backoff = min(2*backoff, maxBackoff)
	}
}

// The coordinator refuses a worker of another protocol revision and logs
// who it refused and both revisions.
func TestCoordinatorLogsRefusedRevision(t *testing.T) {
	var mu sync.Mutex
	var lines []string
	co, err := NewCoordinator(CoordinatorConfig{
		Addr: "127.0.0.1:0", Corpus: e2eCorpus(t), Cfg: e2eConfig(),
		Logf: func(format string, args ...any) {
			mu.Lock()
			lines = append(lines, fmt.Sprintf(format, args...))
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		co.Serve(ctx, train.Options{Iters: 1, CheckpointDir: t.TempDir()})
		close(done)
	}()
	defer func() { cancel(); <-done }()

	c, err := net.Dial("tcp", co.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := WriteFrame(c, MsgHello, (&Hello{Version: ProtoVersion - 1, ID: "old-worker"}).Encode()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadFrame(c); err == nil {
		t.Fatal("a worker of another revision got a frame back")
	}
	want := fmt.Sprintf("worker old-worker: refused: it speaks protocol revision %d, this coordinator %d", ProtoVersion-1, ProtoVersion)
	mu.Lock()
	defer mu.Unlock()
	if !slices.ContainsFunc(lines, func(l string) bool { return strings.Contains(l, want) }) {
		t.Fatalf("no %q among the coordinator's log lines %q", want, lines)
	}
}
