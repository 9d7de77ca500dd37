package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestJudge(t *testing.T) {
	steady := []float64{100, 101, 99, 100.5}
	cases := []struct {
		name   string
		a, b   []float64
		better string
		bound  float64
		want   string
	}{
		{"same", steady, []float64{101, 100, 100, 99.5}, "lower", 0.10, "ok"},
		{"slower within the bound", steady, []float64{108, 107, 109, 108}, "lower", 0.10, "ok"},
		{"slower beyond the bound", steady, []float64{120, 121, 119, 120}, "lower", 0.10, "worse"},
		{"faster is never worse", steady, []float64{50, 51, 49, 50}, "lower", 0.10, "ok"},
		{"throughput dropped", steady, []float64{80, 81, 79, 80}, "higher", 0.10, "worse"},
		{"throughput rose", steady, []float64{130, 131, 129, 130}, "higher", 0.10, "ok"},
		{"one side too noisy to tell", steady, []float64{80, 130, 100, 150}, "lower", 0.10, "unresolved"},
		{"noisy even though the medians differ", []float64{60, 100, 140, 180}, []float64{200, 201, 199, 200}, "lower", 0.10, "unresolved"},
	}
	for _, c := range cases {
		if got := judge(c.a, c.b, c.better, c.bound).Verdict; got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func TestIQRShareMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{7, 1, 9, 3, 5, 2, 10, 4, 8, 6}
	if got, want := iqrShare(xs), (8.25-2.75)/5.5; got < want-1e-12 || got > want+1e-12 {
		t.Errorf("iqrShare = %v, want %v", got, want)
	}
}

func syntheticRuns(workload string, latency []float64, attempted, failed int64) []record {
	var out []record
	for _, ms := range latency {
		out = append(out, record{
			Workload: workload, Correct: true, Attempted: attempted, Failed: failed,
			Metrics: map[string]float64{"op_p50_ms": ms, "setup_s": 0.1},
		})
	}
	return out
}

func TestCompareRecords(t *testing.T) {
	bf := &benchmarkFile{}
	if err := json.Unmarshal([]byte(`{
		"workloads": [{"name": "serve-singles", "why": "x"}, {"name": "serve-batch", "why": "y"}],
		"end_to_end": [{"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1},
		               {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]}`), bf); err != nil {
		t.Fatal(err)
	}
	a := append(syntheticRuns("serve-singles", []float64{2.0, 2.02, 1.98}, 1000, 0),
		syntheticRuns("serve-batch", []float64{12, 12.1, 11.9}, 100, 0)...)
	b := append(syntheticRuns("serve-singles", []float64{2.6, 2.62, 2.58}, 1000, 7),
		syntheticRuns("serve-batch", []float64{12.2, 12.0, 12.1}, 100, 0)...)
	got := map[string]string{}
	for _, v := range compareRecords(bf, a, b) {
		got[v.Workload+" "+v.Metric] = v.Verdict
	}
	want := map[string]string{
		"serve-singles op_p50_ms":    "worse",
		"serve-singles setup_s":      "ok",
		"serve-singles failed_share": "worse",
		"serve-batch op_p50_ms":      "ok",
		"serve-batch setup_s":        "ok",
		"serve-batch failed_share":   "ok",
	}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("%s: verdict %q, want %q", k, got[k], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("rows %v, want exactly %v", got, want)
	}
}

func TestCompareFilesExitStatus(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, recs []record) string {
		path := filepath.Join(dir, name)
		for _, r := range recs {
			if err := appendRecord(path, r); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	bench := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(bench, []byte(`{"workloads": [{"name": "serve-singles", "why": "x"}],
		"end_to_end": [{"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	a := write("a.jsonl", syntheticRuns("serve-singles", []float64{2.0, 2.02, 1.98}, 1000, 0))
	same := write("same.jsonl", syntheticRuns("serve-singles", []float64{2.01, 2.0, 1.99}, 1000, 0))
	slow := write("slow.jsonl", syntheticRuns("serve-singles", []float64{3.0, 3.02, 2.98}, 1000, 0))
	var out bytes.Buffer
	if code := compareFiles(&out, bench, a, same); code != 0 {
		t.Errorf("equal sides: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareFiles(&out, bench, a, slow); code != 1 || !strings.Contains(out.String(), "worse") {
		t.Errorf("slower side: exit %d\n%s", code, out.String())
	}
}
