package infer_test

import (
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"warplda/internal/infer"
)

// engineDispatch adapts an engine to the Batcher's Dispatch shape the
// way the serve layer does, tagging every batch with a fixed tag.
func engineDispatch(e *infer.Engine, seed uint64, tag any) infer.Dispatch {
	return func(docs [][]int32, sweeps []int) ([][]float64, any, error) {
		thetas, err := e.InferBatchSweeps(docs, sweeps, seed)
		return thetas, tag, err
	}
}

// TestBatcherCoalescesConcurrentRequests is the coalescing acceptance
// test: with the first of N single-doc requests held in its dispatch,
// the other N-1 queue behind it and go out as one engine dispatch (two
// in all, observable via engine stats), and every request's result is
// byte-identical to uncoalesced inference with the same seed. Run
// under -race in CI.
func TestBatcherCoalescesConcurrentRequests(t *testing.T) {
	p, _ := trainedParams(t, 0.1)
	eng, err := infer.NewEngine(p, infer.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	const seed = 7
	const n = 8
	docs := make([][]int32, n)
	for i := range docs {
		docs[i] = []int32{int32(i), int32(i + 1), int32(i + 2), 0, 1}
	}
	// Uncoalesced golden answers first (counted separately).
	want := make([][]float64, n)
	for i, doc := range docs {
		out, err := eng.InferBatch([][]int32{doc}, 5, seed)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = out[0]
	}
	base := eng.Stats()

	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	b := infer.NewBatcher(gated(engineDispatch(eng, seed, "tag"), entered, release), infer.BatcherOptions{
		MaxBatch: n,
	})
	defer b.Close()

	var wg sync.WaitGroup
	got := make([][]float64, n)
	tags := make([]any, n)
	errs := make([]error, n)
	do := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], tags[i], errs[i] = b.Do(docs[i], 5, time.Time{})
		}()
	}
	do(0)
	<-entered
	for i := 1; i < n; i++ {
		do(i)
	}
	waitQueueLen(t, b, n-1)
	close(release)
	wg.Wait()

	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if tags[i] != "tag" {
			t.Fatalf("request %d: tag %v", i, tags[i])
		}
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("request %d: coalesced result differs from uncoalesced inference", i)
		}
	}
	if dispatches := eng.Stats().Dispatches - base.Dispatches; dispatches != 2 {
		t.Errorf("%d requests took %d engine dispatches, want 2 (one held, one of the %d queued behind it)", n, dispatches, n-1)
	}
	if docsRun := eng.Stats().Docs - base.Docs; docsRun != n {
		t.Errorf("engine ran %d docs, want %d", docsRun, n)
	}
	st := b.Stats()
	if st.Submitted != n || st.BatchedDocs != n || st.Batches != 2 || st.MaxBatchSeen != n-1 {
		t.Errorf("batcher stats %+v, want %d submitted and batched in 2 batches of at most %d", st, n, n-1)
	}
}

// gated wraps d so that each call signals entered (when it has room)
// and waits until release is closed; once it is, calls pass through.
func gated(d infer.Dispatch, entered chan<- struct{}, release <-chan struct{}) infer.Dispatch {
	return func(docs [][]int32, sweeps []int) ([][]float64, any, error) {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-release
		return d(docs, sweeps)
	}
}

// onesDispatch answers every document with θ = [1].
func onesDispatch(docs [][]int32, _ []int) ([][]float64, any, error) {
	out := make([][]float64, len(docs))
	for i := range out {
		out[i] = []float64{1}
	}
	return out, nil, nil
}

// startBlockedBatcher builds a batcher over d whose first request is
// stuck in dispatch (collector busy) until release is closed, so
// subsequent requests queue.
func startBlockedBatcher(t *testing.T, d infer.Dispatch, opts infer.BatcherOptions) (b *infer.Batcher, release chan struct{}, firstDone chan error) {
	t.Helper()
	entered := make(chan struct{}, 1)
	release = make(chan struct{})
	b = infer.NewBatcher(gated(d, entered, release), opts)
	firstDone = make(chan error, 1)
	go func() {
		_, _, err := b.Do([]int32{0}, 1, time.Time{})
		firstDone <- err
	}()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("dispatch never entered")
	}
	return b, release, firstDone
}

// waitQueueLen polls until the admission queue holds n requests.
func waitQueueLen(t *testing.T, b *infer.Batcher, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for b.QueueLen() < n {
		if time.Now().After(deadline) {
			t.Fatalf("queue never reached %d (at %d)", n, b.QueueLen())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBatcherFillRule pins the dispatch-when-idle rule: a lone request
// on an idle batcher goes out alone at once, and requests queued
// behind a busy dispatch go out MaxBatch at a time, the rest together.
func TestBatcherFillRule(t *testing.T) {
	solo := infer.NewBatcher(onesDispatch, infer.BatcherOptions{})
	if _, _, err := solo.Do([]int32{0}, 1, time.Time{}); err != nil {
		t.Fatal(err)
	}
	solo.Close()
	if st := solo.Stats(); st.Batches != 1 || st.MaxBatchSeen != 1 {
		t.Fatalf("lone request: stats %+v, want one batch of one", st)
	}

	const maxBatch = 4
	var mu sync.Mutex
	var sizes []int
	record := func(docs [][]int32, sweeps []int) ([][]float64, any, error) {
		mu.Lock()
		sizes = append(sizes, len(docs))
		mu.Unlock()
		return onesDispatch(docs, sweeps)
	}
	b, release, firstDone := startBlockedBatcher(t, record, infer.BatcherOptions{
		MaxBatch: maxBatch, QueueDepth: 2 * maxBatch,
	})
	defer b.Close()
	const queued = maxBatch + 2
	results := make(chan error, queued)
	for i := 0; i < queued; i++ {
		go func() {
			_, _, err := b.Do([]int32{1}, 1, time.Time{})
			results <- err
		}()
	}
	waitQueueLen(t, b, queued)
	close(release)
	if err := <-firstDone; err != nil {
		t.Fatalf("first request: %v", err)
	}
	for i := 0; i < queued; i++ {
		if err := <-results; err != nil {
			t.Fatalf("queued request: %v", err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if want := []int{1, maxBatch, 2}; !reflect.DeepEqual(sizes, want) {
		t.Fatalf("dispatch sizes %v, want %v", sizes, want)
	}
}

func TestBatcherQueueFullSheds(t *testing.T) {
	b, release, firstDone := startBlockedBatcher(t, onesDispatch, infer.BatcherOptions{
		MaxBatch: 1, QueueDepth: 2,
	})
	defer b.Close()

	// Two requests fill the depth-2 queue behind the stuck dispatch.
	results := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, _, err := b.Do([]int32{1}, 1, time.Time{})
			results <- err
		}()
	}
	waitQueueLen(t, b, 2)

	// The third is refused at admission, immediately.
	if _, _, err := b.Do([]int32{2}, 1, time.Time{}); !errors.Is(err, infer.ErrQueueFull) {
		t.Fatalf("over-capacity request got %v, want ErrQueueFull", err)
	}
	if st := b.Stats(); st.ShedQueueFull != 1 {
		t.Fatalf("ShedQueueFull = %d, want 1", st.ShedQueueFull)
	}

	// Unblock: everything admitted completes.
	close(release)
	if err := <-firstDone; err != nil {
		t.Fatalf("first request: %v", err)
	}
	for i := 0; i < 2; i++ {
		if err := <-results; err != nil {
			t.Fatalf("queued request: %v", err)
		}
	}
}

func TestBatcherDeadlineShedsQueuedWork(t *testing.T) {
	b, release, firstDone := startBlockedBatcher(t, onesDispatch, infer.BatcherOptions{
		MaxBatch: 1, QueueDepth: 8,
	})
	defer b.Close()

	// One request with a short deadline queues behind the stuck
	// dispatch; its deadline passes before the collector reaches it.
	expired := make(chan error, 1)
	go func() {
		_, _, err := b.Do([]int32{1}, 1, time.Now().Add(20*time.Millisecond))
		expired <- err
	}()
	// One without a deadline must survive the same wait.
	patient := make(chan error, 1)
	go func() {
		_, _, err := b.Do([]int32{2}, 1, time.Time{})
		patient <- err
	}()
	waitQueueLen(t, b, 2)
	time.Sleep(40 * time.Millisecond)
	close(release)

	if err := <-expired; !errors.Is(err, infer.ErrDeadlineExceeded) {
		t.Fatalf("expired request got %v, want ErrDeadlineExceeded", err)
	}
	if err := <-patient; err != nil {
		t.Fatalf("patient request: %v", err)
	}
	if err := <-firstDone; err != nil {
		t.Fatalf("first request: %v", err)
	}
	if st := b.Stats(); st.ShedDeadline != 1 {
		t.Fatalf("ShedDeadline = %d, want 1", st.ShedDeadline)
	}
	// A request already past deadline is shed at admission, before
	// queueing.
	if _, _, err := b.Do([]int32{3}, 1, time.Now().Add(-time.Second)); !errors.Is(err, infer.ErrDeadlineExceeded) {
		t.Fatalf("pre-expired request got %v", err)
	}
}

// TestBatcherCloseDrainsQueuedWork pins the drain contract: Close
// refuses new requests but completes everything already admitted.
func TestBatcherCloseDrainsQueuedWork(t *testing.T) {
	b, release, firstDone := startBlockedBatcher(t, onesDispatch, infer.BatcherOptions{
		MaxBatch: 4, QueueDepth: 8,
	})
	const queued = 3
	results := make(chan error, queued)
	for i := 0; i < queued; i++ {
		go func() {
			_, _, err := b.Do([]int32{1}, 1, time.Time{})
			results <- err
		}()
	}
	waitQueueLen(t, b, queued)

	closed := make(chan struct{})
	go func() {
		b.Close()
		close(closed)
	}()
	close(release)
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close never returned")
	}
	if err := <-firstDone; err != nil {
		t.Fatalf("first request: %v", err)
	}
	for i := 0; i < queued; i++ {
		if err := <-results; err != nil {
			t.Fatalf("queued request errored during drain: %v", err)
		}
	}
	if _, _, err := b.Do([]int32{1}, 1, time.Time{}); !errors.Is(err, infer.ErrBatcherClosed) {
		t.Fatalf("post-close request got %v, want ErrBatcherClosed", err)
	}
	b.Close() // idempotent
}

// TestBatcherFallbackIsolatesBadDoc: one invalid document coalesced
// with a valid one fails alone; its neighbor still gets an answer.
func TestBatcherFallbackIsolatesBadDoc(t *testing.T) {
	p, _ := trainedParams(t, 0.1)
	eng, err := infer.NewEngine(p, infer.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Hold the first dispatch so the good and the bad document queue
	// behind it and share the next batch.
	b, release, firstDone := startBlockedBatcher(t, engineDispatch(eng, 7, nil), infer.BatcherOptions{
		MaxBatch: 4,
	})
	defer b.Close()

	var wg sync.WaitGroup
	var goodErr, badErr error
	var goodTheta []float64
	wg.Add(2)
	go func() {
		defer wg.Done()
		goodTheta, _, goodErr = b.Do([]int32{0, 1, 2}, 3, time.Time{})
	}()
	go func() {
		defer wg.Done()
		_, _, badErr = b.Do([]int32{int32(p.V) + 5}, 3, time.Time{})
	}()
	waitQueueLen(t, b, 2)
	close(release)
	wg.Wait()
	if err := <-firstDone; err != nil {
		t.Fatalf("first request: %v", err)
	}

	if goodErr != nil || len(goodTheta) != p.K {
		t.Fatalf("good request: theta len %d, err %v", len(goodTheta), goodErr)
	}
	if badErr == nil {
		t.Fatal("invalid doc request succeeded")
	}
	if st := b.Stats(); st.Fallbacks != 2 || st.MaxBatchSeen != 2 {
		t.Fatalf("stats %+v, want the shared batch of 2 to fall back to 2 single dispatches", st)
	}
}

// TestBatcherUnderConcurrentLoad hammers a batcher from many
// goroutines (race coverage for the stats counters and the
// collect/drain machinery) and checks conservation: every submitted
// request is answered exactly once, and no Stats read taken meanwhile
// shows more batched or queue-shed requests than were submitted.
func TestBatcherUnderConcurrentLoad(t *testing.T) {
	var calls atomic.Int64
	dispatch := func(docs [][]int32, sweeps []int) ([][]float64, any, error) {
		calls.Add(1)
		return onesDispatch(docs, sweeps)
	}
	b := infer.NewBatcher(dispatch, infer.BatcherOptions{MaxBatch: 8, QueueDepth: 64})
	const workers, per = 8, 200
	var wg sync.WaitGroup
	var ok, shed atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				_, _, err := b.Do([]int32{0}, 1, time.Time{})
				switch {
				case err == nil:
					ok.Add(1)
				case errors.Is(err, infer.ErrQueueFull):
					shed.Add(1)
				default:
					t.Errorf("unexpected error: %v", err)
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	for polling := true; polling; {
		select {
		case <-done:
			polling = false
		default:
		}
		if st := b.Stats(); st.Submitted < st.BatchedDocs+st.ShedDeadline {
			t.Fatalf("stats %+v show more batched or shed than submitted", st)
		}
	}
	b.Close()
	if got := ok.Load() + shed.Load(); got != workers*per {
		t.Fatalf("answered %d of %d requests", got, workers*per)
	}
	st := b.Stats()
	if st.BatchedDocs != ok.Load() || st.Submitted != ok.Load() {
		t.Fatalf("stats %+v vs %d completed", st, ok.Load())
	}
	if calls.Load() != st.Batches {
		t.Fatalf("dispatch calls %d != batches %d", calls.Load(), st.Batches)
	}
}
