package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// quantile returns the q-quantile of xs by linear interpolation
// between order statistics; NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// Timings on this machine come in modes (README.md shows the series):
// for seconds at a time, or for as long as a sampler lives, the same
// work runs up to one and a half times slower, while plain arithmetic
// keeps its speed. A mean or a median over a window therefore says how
// much of the window was disturbed, not how fast the code is. Timing
// metrics are instead taken from the quiet part of a window: the
// fastest iteration of each kind for training, the four of eighteen
// time slices that completed the most requests for serving. Across ten
// runs that repeats two to four times closer than the median does.

// quiet is the smallest of a sample of times.
func quiet(ms []float64) float64 { return quantile(ms, 0) }

// quietShare is the share of a sample of times within a tenth of its
// quiet value: how much of the window ran at the speed reported.
func quietShare(ms []float64) float64 {
	if len(ms) == 0 {
		return 0
	}
	limit, n := 1.1*quiet(ms), 0
	for _, x := range ms {
		if x <= limit {
			n++
		}
	}
	return float64(n) / float64(len(ms))
}

// iqrShare is the distance between the first and third quartile of
// xs as a share of its median, with the quartiles Python's
// statistics.quantiles(xs, n=4) gives (the exclusive method), so
// -compare judges spread the way the driver does.
func iqrShare(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := sorted(xs)
	at := func(p float64) float64 {
		pos := p*float64(n+1) - 1
		if pos < 0 {
			pos = 0
		}
		if pos > float64(n-1) {
			pos = float64(n - 1)
		}
		lo := int(math.Floor(pos))
		hi := int(math.Ceil(pos))
		return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return math.Abs((at(0.75) - at(0.25)) / med)
}
