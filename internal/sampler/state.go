// Sampler state serialization. Every sampler implementation serializes
// its complete mutable state (assignments, proposals, derived caches,
// RNG streams) through the small binary codec below, so a training run
// checkpointed between two iterations resumes bit-identically to one
// that was never interrupted. The codec is deliberately dumb: fixed
// little-endian primitives with length prefixes, no compression, no
// reflection on hot paths beyond encoding/binary's slice fast paths.
//
// Robustness contract: decoders must validate everything they read
// (dimension prefixes, value ranges) and implementations must not
// commit any decoded state to the live sampler until the whole blob has
// been read and validated — a corrupt checkpoint must fail cleanly, not
// leave a half-restored sampler training on garbage. The Dec helpers
// support that style: decode into fresh buffers, check Err, then swap.
package sampler

import (
	"encoding/binary"
	"fmt"
	"io"

	"warplda/internal/fsio"
	"warplda/internal/rng"
)

// maxStateElems caps any single length prefix read by Dec; 1<<31 - 1
// entries (the largest int on a 32-bit platform) is far above any corpus this in-memory implementation can
// hold. Below the cap, slices are read through fsio.ReadSlice, so a
// corrupt or hostile prefix — in a checkpoint before its checksum is
// checked, or in a wire payload, which no checksum authenticates —
// allocates in proportion to the bytes actually present.
const maxStateElems = 1<<31 - 1

// Enc writes binary sampler state. The first error sticks; check Err
// once at the end.
type Enc struct {
	w   io.Writer
	err error
}

// NewEnc returns an encoder writing to w.
func NewEnc(w io.Writer) *Enc { return &Enc{w: w} }

// Err returns the first error encountered, if any.
func (e *Enc) Err() error { return e.err }

func (e *Enc) write(v any) {
	if e.err == nil {
		e.err = binary.Write(e.w, binary.LittleEndian, v)
	}
}

// Tag writes a fixed marker string (an implementation's magic+version).
func (e *Enc) Tag(s string) {
	if e.err == nil {
		_, e.err = io.WriteString(e.w, s)
	}
}

// Int writes an int as int64.
func (e *Enc) Int(v int) { e.write(int64(v)) }

// Ints writes each of vs as Int does.
func (e *Enc) Ints(vs ...int) {
	for _, v := range vs {
		e.Int(v)
	}
}

// U64 writes a uint64.
func (e *Enc) U64(v uint64) { e.write(v) }

// F64 writes a float64.
func (e *Enc) F64(v float64) { e.write(v) }

// Str writes a length-prefixed string.
func (e *Enc) Str(s string) {
	e.Int(len(s))
	e.Tag(s)
}

// I32s writes a length-prefixed []int32.
func (e *Enc) I32s(s []int32) {
	e.Int(len(s))
	e.write(s)
}

// F64s writes a length-prefixed []float64.
func (e *Enc) F64s(s []float64) {
	e.Int(len(s))
	e.write(s)
}

// F32s writes a length-prefixed []float32.
func (e *Enc) F32s(s []float32) {
	e.Int(len(s))
	e.write(s)
}

// I32Mat writes a length-prefixed slice of length-prefixed []int32 rows.
func (e *Enc) I32Mat(m [][]int32) {
	e.Int(len(m))
	for _, row := range m {
		e.I32s(row)
	}
}

// RNG writes the four state words of a generator.
func (e *Enc) RNG(r *rng.RNG) {
	s := r.State()
	for _, w := range s {
		e.U64(w)
	}
}

// Dec reads binary sampler state written by Enc. The first error
// sticks: all subsequent reads return zero values, so decode sequences
// can run to completion and check Err once.
type Dec struct {
	r   io.Reader
	err error
}

// NewDec returns a decoder reading from r.
func NewDec(r io.Reader) *Dec { return &Dec{r: r} }

// Err returns the first error encountered, if any.
func (d *Dec) Err() error { return d.err }

// fail records the first error.
func (d *Dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

// Failf lets decoders in sampler implementations record a validation
// error of their own (dimension or invariant mismatch); like read
// errors, the first one sticks and surfaces from Err.
func (d *Dec) Failf(format string, args ...any) { d.fail(format, args...) }

func (d *Dec) read(v any) {
	if d.err == nil {
		if err := binary.Read(d.r, binary.LittleEndian, v); err != nil {
			d.err = fmt.Errorf("sampler state: %w", err)
		}
	}
}

// Tag reads len(want) bytes and fails unless they equal want.
func (d *Dec) Tag(want string) {
	if d.err != nil {
		return
	}
	buf := make([]byte, len(want))
	if _, err := io.ReadFull(d.r, buf); err != nil {
		d.err = fmt.Errorf("sampler state: reading tag: %w", err)
		return
	}
	if string(buf) != want {
		d.err = fmt.Errorf("sampler state: tag %q, want %q (state saved by a different sampler or version)", buf, want)
	}
}

// Int reads an int64 as int.
func (d *Dec) Int() int {
	var v int64
	d.read(&v)
	return int(v)
}

// U64 reads a uint64.
func (d *Dec) U64() uint64 {
	var v uint64
	d.read(&v)
	return v
}

// F64 reads a float64.
func (d *Dec) F64() float64 {
	var v float64
	d.read(&v)
	return v
}

// length reads and sanity-checks a slice length prefix.
func (d *Dec) length(what string) int {
	n := d.Int()
	if d.err == nil && (n < 0 || n > maxStateElems) {
		d.fail("sampler state: implausible %s length %d", what, n)
	}
	if d.err != nil {
		return 0
	}
	return n
}

// Str reads a length-prefixed string of at most max bytes.
func (d *Dec) Str(what string, max int) string {
	n := d.length(what)
	if d.err == nil && n > max {
		d.fail("sampler state: %s length %d exceeds %d", what, n, max)
	}
	if d.err != nil || n == 0 {
		return ""
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(d.r, buf); err != nil {
		d.err = fmt.Errorf("sampler state: reading %s: %w", what, err)
		return ""
	}
	return string(buf)
}

// I32s reads a length-prefixed []int32 of any length.
func (d *Dec) I32s(what string) []int32 {
	n := d.length(what)
	if d.err != nil || n == 0 {
		return nil
	}
	return readSlice[int32](d, what, n)
}

// I32sLen reads a length-prefixed []int32 and fails unless its length
// is exactly want — the dimension check that catches a state blob saved
// under a different K, V, or corpus.
func (d *Dec) I32sLen(what string, want int) []int32 {
	return readSliceLen[int32](d, what, want)
}

// F64s reads a length-prefixed []float64.
func (d *Dec) F64s(what string) []float64 {
	n := d.length(what)
	if d.err != nil || n == 0 {
		return nil
	}
	return readSlice[float64](d, what, n)
}

// F64sLen reads a length-prefixed []float64 of exactly want entries —
// like I32sLen, the dimension check runs before the allocation.
func (d *Dec) F64sLen(what string, want int) []float64 {
	return readSliceLen[float64](d, what, want)
}

// F32sLen reads a length-prefixed []float32 of exactly want entries.
func (d *Dec) F32sLen(what string, want int) []float32 {
	return readSliceLen[float32](d, what, want)
}

// readSliceLen reads a length prefix, fails unless it equals want, then
// reads the values.
func readSliceLen[T any](d *Dec, what string, want int) []T {
	n := d.length(what)
	if d.err == nil && n != want {
		d.fail("sampler state: %s has %d entries, want %d", what, n, want)
	}
	if d.err != nil {
		return nil
	}
	return readSlice[T](d, what, n)
}

// readSlice reads n values through fsio.ReadSlice.
func readSlice[T any](d *Dec, what string, n int) []T {
	s, err := fsio.ReadSlice[T](d.r, n)
	if err != nil {
		d.fail("sampler state: reading %s: %w", what, err)
	}
	return s
}

// I32Mat reads a length-prefixed matrix written by Enc.I32Mat. Rows are
// appended as they decode, so a hostile row count costs what the input
// holds.
func (d *Dec) I32Mat(what string) [][]int32 {
	n := d.length(what)
	if d.err != nil {
		return nil
	}
	m := [][]int32{}
	for i := 0; i < n; i++ {
		row := d.I32s(what)
		if d.err != nil {
			return nil
		}
		m = append(m, row)
	}
	return m
}

// RNGState reads four state words (to be committed with rng.SetState
// only after the whole blob validates).
func (d *Dec) RNGState() [4]uint64 {
	var s [4]uint64
	for i := range s {
		s[i] = d.U64()
	}
	return s
}

// CheckTopics fails unless every value of z lies in [0, k) — the guard
// every RestoreFrom runs over decoded assignments before committing.
func (d *Dec) CheckTopics(what string, z []int32, k int) {
	if d.err != nil {
		return
	}
	for i, t := range z {
		if t < 0 || int(t) >= k {
			d.fail("sampler state: %s[%d] = %d outside [0, %d)", what, i, t, k)
			return
		}
	}
}
