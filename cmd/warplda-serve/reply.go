package main

import (
	"math"
	"net/http"
	"slices"
	"strconv"
	"sync"
)

// The infer reply is written by hand, not by encoding/json: its K
// floats per document are most of a small request's handler time, and
// almost all of that is shortest-form float formatting. The engine
// sets θ_t = (c_dt + α)/(L_d + ᾱ), so a row holds at most
// min(K, L_d + 1) distinct values — a 16-token document's 256 entries
// are mostly α/(L_d + ᾱ) — and floatMemo formats each distinct value
// of a row once and copies its bytes for every repeat. The bytes are
// exactly those json.NewEncoder(w).Encode(inferResponse{…}) writes
// (TestInferReplyMatchesEncodingJSON, FuzzInferReply).

// memoSlots is the size of floatMemo's open-addressed table and
// memoFill the number of distinct values one row may enter into it.
// Keeping the table at most half full bounds a miss's probe run; values
// past memoFill in a row are formatted each time they occur.
const (
	memoBits  = 6
	memoSlots = 1 << memoBits
	memoFill  = memoSlots / 2
)

// memoSlot maps a float's bits to its formatted bytes, which live in
// the reply buffer at [off, off+n). A slot is live only when its gen is
// the memo's current one, so starting a row clears nothing.
type memoSlot struct {
	bits uint64
	off  int
	n    int
	gen  uint32
}

// floatMemo remembers where in the reply buffer each distinct value of
// the current row was formatted.
type floatMemo struct {
	slots [memoSlots]memoSlot
	gen   uint32
	used  int
}

// reset starts a new row.
func (m *floatMemo) reset() {
	m.gen++
	if m.gen == 0 { // wrapped: stale slots would read as live
		m.slots = [memoSlots]memoSlot{}
		m.gen = 1
	}
	m.used = 0
}

// appendFloat appends f as encoding/json writes a float64, copying the
// bytes of an earlier occurrence in this row when there is one.
func (m *floatMemo) appendFloat(dst []byte, f float64) []byte {
	bits := math.Float64bits(f)
	for i := (bits * 0x9E3779B97F4A7C15) >> (64 - memoBits); ; i = (i + 1) & (memoSlots - 1) {
		s := &m.slots[i]
		if s.gen != m.gen {
			// A miss ends at an empty slot; one always exists since
			// used < memoSlots.
			off := len(dst)
			dst = appendJSONFloat(dst, f)
			if m.used < memoFill {
				*s = memoSlot{bits: bits, off: off, n: len(dst) - off, gen: m.gen}
				m.used++
			}
			return dst
		}
		if s.bits == bits {
			return append(dst, dst[s.off:s.off+s.n]...)
		}
	}
}

// appendJSONFloat appends f by encoding/json's float64 rule: 'f' for
// 1e-6 ≤ |f| < 1e21 (and zero), otherwise 'e' with a leading zero
// dropped from a negative two-digit exponent. f must be finite, as
// every θ is (α > 0).
func appendJSONFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

// appendInferReply appends r as json.NewEncoder(w).Encode(r) writes it,
// trailing newline included. r.Model is appended verbatim: only names
// the registry admits reach a reply, and none of their characters needs
// escaping.
func appendInferReply(dst []byte, m *floatMemo, r *inferResponse) []byte {
	dst = append(dst, `{"model":"`...)
	dst = append(dst, r.Model...)
	dst = append(dst, `","version":`...)
	dst = strconv.AppendInt(dst, int64(r.Version), 10)
	dst = append(dst, `,"topics":`...)
	if r.Topics == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, row := range r.Topics {
			if i > 0 {
				dst = append(dst, ',')
			}
			if row == nil {
				dst = append(dst, "null"...)
				continue
			}
			m.reset()
			dst = append(dst, '[')
			for k, p := range row {
				if k > 0 {
					dst = append(dst, ',')
				}
				dst = m.appendFloat(dst, p)
			}
			dst = append(dst, ']')
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"top":`...)
	if r.Top == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, t := range r.Top {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(dst, int64(t), 10)
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"took_ms":`...)
	dst = appendJSONFloat(dst, r.TookMs)
	return append(dst, "}\n"...)
}

// replyScratch is one request's reusable reply state: the argmax row,
// the output buffer and the memo.
type replyScratch struct {
	top  []int
	buf  []byte
	memo floatMemo
}

// maxPooledReply is the largest reply buffer returned to the pool, so
// one huge batch does not stay resident after it is answered.
const maxPooledReply = 1 << 20

// replyPool's scratch starts with an empty, non-nil top, so a reply to
// zero documents still reads "top":[] as encoding/json wrote it.
var replyPool = sync.Pool{New: func() any { return &replyScratch{top: []int{}} }}

// writeInferReply answers 200 with r, its Top set to each row's argmax,
// the way writeJSON would.
func writeInferReply(w http.ResponseWriter, r *inferResponse) {
	sc := replyPool.Get().(*replyScratch)
	top := sc.top[:0]
	// Size a fresh buffer once for the usual ≤ 24 bytes a value.
	n := 128
	for _, theta := range r.Topics {
		best := 0
		for k, p := range theta {
			if p > theta[best] {
				best = k
			}
		}
		top = append(top, best)
		n += 8 + 24*len(theta)
	}
	sc.top, r.Top = top, top
	sc.buf = appendInferReply(slices.Grow(sc.buf[:0], n), &sc.memo, r)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	// A failed write means the client is gone; there is no one to tell.
	_, _ = w.Write(sc.buf)
	if cap(sc.buf) <= maxPooledReply {
		replyPool.Put(sc)
	}
}
