package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// A span is one timed call the benchmark made into a layer. Parent is
// the index of the span that caused it (-1 for a root); spans of one
// iteration or request share a RunID.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	RunID  int64  `json:"run_id"`
}

// A tracer keeps spans and counts in memory until the workload ends.
// A nil *tracer records nothing, which is how the untraced run calls
// the same code. While paused it records nothing either: the traced
// run alternates recorded and unrecorded slices of the measured window
// and the difference in throughput is trace.overhead_share.
type tracer struct {
	t0     time.Time
	paused atomic.Bool

	mu     sync.Mutex
	spans  []span
	counts map[string]int64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16), counts: map[string]int64{}}
}

const noSpan = int32(-1)

// begin opens a span and returns its index, or noSpan when nothing is
// being recorded.
func (t *tracer) begin(name string, parent int32, runID int64) int32 {
	if t == nil || t.paused.Load() {
		return noSpan
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: parent, RunID: runID})
	i := int32(len(t.spans) - 1)
	t.mu.Unlock()
	return i
}

func (t *tracer) end(i int32) {
	if t == nil || i == noSpan {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

func (t *tracer) count(name string, n int64) {
	if t == nil || t.paused.Load() {
		return
	}
	t.mu.Lock()
	t.counts[name] += n
	t.mu.Unlock()
}

func (t *tracer) setPaused(p bool) {
	if t != nil {
		t.paused.Store(p)
	}
}

// durationsMs returns the duration of every finished span called name.
func (t *tracer) durationsMs(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End > 0 {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// selfTimes returns, per span name, total duration and self time in
// milliseconds: a span's self time is its duration minus the part of
// that interval its child spans cover.
func selfTimes(spans []span) (total, self map[string]float64) {
	children := make(map[int32][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 && s.End > 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	total, self = map[string]float64{}, map[string]float64{}
	for i, s := range spans {
		if s.End == 0 {
			continue
		}
		dur := s.End - s.Start
		kids := children[int32(i)]
		sort.Slice(kids, func(a, b int) bool { return kids[a][0] < kids[b][0] })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := k[0], k[1]
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		total[s.Name] += float64(dur) / 1e6
		self[s.Name] += float64(dur-covered) / 1e6
	}
	return total, self
}

// traceFile is what trace_<workload>.json holds.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	Env      envRecord          `json:"env"`
	TotalMs  map[string]float64 `json:"total_ms"`
	SelfMs   map[string]float64 `json:"self_ms"`
	Counts   map[string]int64   `json:"counts"`
	Spans    []span             `json:"spans"`
}

func (t *tracer) write(path, workload string, seed uint64, env envRecord) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	total, self := selfTimes(t.spans)
	data, err := json.Marshal(traceFile{
		Workload: workload, Seed: seed, Env: env,
		TotalMs: total, SelfMs: self, Counts: t.counts, Spans: t.spans,
	})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
