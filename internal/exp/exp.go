// Package exp contains one runner per table and figure of the paper's
// evaluation (Section 6 plus the systems figures of Section 5). Each
// runner builds its workload, executes the relevant algorithms, and
// returns a Report whose rows mirror what the paper plots. The cmd/
// warplda-bench binary prints full-size reports; bench_test.go runs
// reduced ("quick") versions so the whole suite regenerates in minutes
// on one core.
//
// Where a report substitutes for the paper's setup (synthetic corpora, a
// software cache simulator, a modeled cluster) its function says so.
package exp

import (
	"fmt"
	"io"
	"strings"
)

// Report is the rendered result of one experiment.
type Report struct {
	ID    string // e.g. "table4", "fig5"
	Title string
	Lines []string
}

func (r *Report) addf(format string, args ...any) {
	r.Lines = append(r.Lines, fmt.Sprintf(format, args...))
}

// WriteTo renders the report.
func (r *Report) WriteTo(w io.Writer) (int64, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	for _, l := range r.Lines {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// String renders the report to a string.
func (r *Report) String() string {
	var b strings.Builder
	_, _ = r.WriteTo(&b)
	return b.String()
}

// Options control experiment sizing. Quick mode shrinks corpora, topic
// counts and iteration budgets so the full suite runs in minutes.
type Options struct {
	Quick bool
	Seed  uint64
}

func (o Options) seed() uint64 {
	if o.Seed == 0 {
		return 42
	}
	return o.Seed
}

// pick returns quick when o.Quick, else full.
func pick[T any](o Options, quick, full T) T {
	if o.Quick {
		return quick
	}
	return full
}
