package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchmarkFile is BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// readSide reads one side of a comparison, which must hold a run.
func readSide(path string) ([]record, error) {
	recs, err := readRecords(path)
	if err == nil && len(recs) == 0 {
		err = fmt.Errorf("%s: no untraced runs", path)
	}
	return recs, err
}

// readRecords reads the untraced runs of an -out file.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !r.Trace {
			recs = append(recs, r)
		}
	}
	return recs, sc.Err()
}

// A verdict is one row of a comparison: ok, worse (side b is worse
// than side a by more than the bound), or unresolved (a side's own
// runs spread wider than the bound, so the medians decide nothing).
type verdict struct {
	Workload, Metric string
	MedianA, MedianB float64
	Ratio            float64 // b / a
	Bound            float64
	SpreadA, SpreadB float64
	Verdict          string
}

// judge compares side b against side a on one metric.
func judge(a, b []float64, better string, bound float64) verdict {
	v := verdict{MedianA: median(a), MedianB: median(b), Bound: bound, SpreadA: iqrShare(a), SpreadB: iqrShare(b)}
	v.Ratio = v.MedianB / v.MedianA
	worse := v.Ratio > 1+bound
	if better == "higher" {
		worse = v.Ratio < 1-bound
	}
	switch {
	case v.SpreadA > bound || v.SpreadB > bound:
		v.Verdict = "unresolved"
	case worse:
		v.Verdict = "worse"
	default:
		v.Verdict = "ok"
	}
	return v
}

// compareRecords judges every workload x end-to-end metric both sides
// ran, plus each workload's share of failed operations.
func compareRecords(bf *benchmarkFile, a, b []record) []verdict {
	group := func(recs []record, workload, metric string) (vals []float64, attempted, failed int64) {
		for _, r := range recs {
			if r.Workload != workload {
				continue
			}
			attempted += r.Attempted
			failed += r.Failed
			if v, ok := r.Metrics[metric]; ok {
				vals = append(vals, v)
			}
		}
		return vals, attempted, failed
	}
	var out []verdict
	for _, w := range bf.Workloads {
		var attA, failA, attB, failB int64
		for _, m := range bf.EndToEnd {
			va, aa, fa := group(a, w.Name, m.Name)
			vb, ab, fb := group(b, w.Name, m.Name)
			attA, failA, attB, failB = aa, fa, ab, fb
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v := judge(va, vb, m.Better, m.Bound)
			v.Workload, v.Metric = w.Name, m.Name
			out = append(out, v)
		}
		if attA == 0 || attB == 0 {
			continue
		}
		v := verdict{
			Workload: w.Name, Metric: "failed_share",
			MedianA: float64(failA) / float64(attA), MedianB: float64(failB) / float64(attB), Verdict: "ok",
		}
		if v.MedianB > v.MedianA {
			v.Verdict = "worse"
		}
		out = append(out, v)
	}
	return out
}

func compareFiles(w io.Writer, benchmarkPath, pathA, pathB string) int {
	bf, err := readBenchmarkFile(benchmarkPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 2
	}
	a, err := readSide(pathA)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 2
	}
	b, err := readSide(pathB)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 2
	}
	for _, side := range []struct {
		name string
		recs []record
	}{{"a", a}, {"b", b}} {
		n := 0
		for _, r := range side.recs {
			if r.Disturbed {
				n++
			}
		}
		if n > 0 {
			fmt.Fprintf(w, "note: %d of side %s's %d runs are marked disturbed (spins apart or steal time); repeat them\n", n, side.name, len(side.recs))
		}
	}
	if ea, eb := a[0].Env, b[0].Env; ea.machine() != eb.machine() {
		fmt.Fprintf(w, "note: the two sides ran in different environments:\n  a: %+v\n  b: %+v\n", ea, eb)
	}
	fmt.Fprintf(w, "%-20s %-18s %14s %14s %9s %7s %8s %8s  %s\n",
		"workload", "metric", "median a", "median b", "b/a", "bound", "iqr a", "iqr b", "verdict")
	status := 0
	for _, v := range compareRecords(bf, a, b) {
		fmt.Fprintf(w, "%-20s %-18s %14.6g %14.6g %9.4f %7.3f %8.4f %8.4f  %s\n",
			v.Workload, v.Metric, v.MedianA, v.MedianB, v.Ratio, v.Bound, v.SpreadA, v.SpreadB, v.Verdict)
		if v.Verdict != "ok" {
			status = 1
		}
	}
	return status
}
