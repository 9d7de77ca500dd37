package fsio

// The WARPDLT incremental model delta format. A delta file carries the
// changed (word, topic) cells of the word-topic count matrix C_wk plus
// the new global topic-count vector C_k between two published states of
// one model, stamped with a chain fingerprint of the state it applies
// to and a contiguous generation number. The train-side writer
// (internal/train, cmd/warplda-train -publish-delta) and the serve-side
// folder (internal/registry) share this one codec so the two ends of
// the publish→fold pipeline cannot drift; docs/FORMATS.md holds the
// normative byte-level specification.
//
// Layout (all integers little endian):
//
//	"WARPDLT\x01"                                   8-byte magic
//	-- checksummed body --
//	v, k              int64 ×2                      model dims
//	gen               int64                         1-based chain position
//	baseFP, newFP     uint64 ×2                     chain fingerprints
//	iter              int64                         producing iteration
//	logLik            float64                       trained log likelihood
//	nCells            int64
//	cells             nCells × (w, t, add int32)    C_wk += add, (w,t) ascending
//	ck                k × int64                     new absolute C_k
//	-- end body --
//	crc32             uint32                        IEEE, over the body
//
// The chain invariant: a fresh snapshot's state fingerprint is
// ModelFingerprint over its counts; each delta's BaseFP must equal the
// current chain fingerprint and its NewFP must equal
// ChainFingerprint(BaseFP, delta). A folder therefore detects stale,
// foreign, reordered, and gapped deltas before any count is touched.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// DeltaMagic starts every WARPDLT file.
const DeltaMagic = "WARPDLT\x01"

// MaxDeltaCells bounds the cell count a delta may declare — the same
// V·K ceiling the model format enforces — so a corrupt or hostile
// header cannot trigger a multi-gigabyte allocation before the CRC
// check has seen the bytes.
const MaxDeltaCells = 1 << 31

// DeltaCell is one changed entry of the word-topic count matrix:
// C[W, T] += Add. Add may be negative; the folded count must remain
// non-negative.
type DeltaCell struct {
	W, T, Add int32
}

// ModelDelta is one decoded WARPDLT file: the incremental update that
// advances a served model from chain state BaseFP (generation Gen-1) to
// NewFP (generation Gen).
type ModelDelta struct {
	// V, K are the model dims the delta applies to; a delta never
	// changes a model's shape.
	V, K int
	// Gen is the delta's 1-based position in its chain. Generation g
	// applies to the state produced by generation g-1; generation 1
	// applies to the freshly published base snapshot.
	Gen int64
	// BaseFP is the chain fingerprint of the state this delta applies
	// to; NewFP the fingerprint after applying it, always equal to
	// ChainFingerprint(BaseFP, cells, ck).
	BaseFP, NewFP uint64
	// Iter is the training iteration that produced the new state;
	// LogLik its trained log likelihood (the served model's metadata).
	Iter   int64
	LogLik float64
	// Cells are the changed C_wk entries in ascending (W, T) order, at
	// most one per (W, T) pair.
	Cells []DeltaCell
	// Ck is the new absolute topic-count vector (length K). It is
	// redundant with Cells — Ck[t] must equal the old value plus the sum
	// of the cell adds in column t — and the folder verifies exactly
	// that, so a writer/reader disagreement cannot silently skew Φ̂.
	Ck []int64
}

// fnvOffset and fnvPrime are the FNV-1a 64-bit parameters used by the
// chain fingerprints below.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvU64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	return h
}

// ModelFingerprint hashes a model's count state — dims, the full C_wk
// matrix, and C_k — into the 64-bit chain fingerprint a freshly
// published snapshot starts its delta chain from. It is FNV-1a over the
// little-endian encoding of (v, k, cw..., ck...).
func ModelFingerprint(v, k int, cw []int32, ck []int64) uint64 {
	h := fnvU64(fnvU64(uint64(fnvOffset), uint64(v)), uint64(k))
	for _, c := range cw {
		h = fnvU64(h, uint64(uint32(c)))
	}
	for _, c := range ck {
		h = fnvU64(h, uint64(c))
	}
	return h
}

// ChainFingerprint advances a chain fingerprint across one delta:
// FNV-1a over the base fingerprint, the generation, every cell, and the
// new C_k vector. Both the writer (stamping NewFP) and the folder
// (verifying it, then adopting it as the current state fingerprint)
// call this one function, so the chain cannot fork silently.
func ChainFingerprint(base uint64, gen int64, cells []DeltaCell, ck []int64) uint64 {
	h := fnvU64(fnvU64(uint64(fnvOffset), base), uint64(gen))
	for _, c := range cells {
		h = fnvU64(h, uint64(uint32(c.W)))
		h = fnvU64(h, uint64(uint32(c.T)))
		h = fnvU64(h, uint64(uint32(c.Add)))
	}
	for _, c := range ck {
		h = fnvU64(h, uint64(c))
	}
	return h
}

// Validate checks the delta's internal invariants — the ones decidable
// without the base state it applies to: plausible dims, in-range
// strictly-ascending cells, non-negative Ck, and a NewFP that matches
// the chain hash. ReadDelta runs it after the CRC check; a writer bug
// (or a hand-built file) fails here, not at fold time.
func (d *ModelDelta) Validate() error {
	const maxDim = 1 << 31
	if d.V <= 0 || d.K <= 0 || int64(d.V) > maxDim || int64(d.K) > maxDim || int64(d.V)*int64(d.K) > maxDim {
		return fmt.Errorf("fsio: implausible delta dims V=%d K=%d", d.V, d.K)
	}
	if d.Gen < 1 {
		return fmt.Errorf("fsio: delta generation %d, want >= 1", d.Gen)
	}
	if d.Iter < 0 {
		return fmt.Errorf("fsio: delta iteration %d, want >= 0", d.Iter)
	}
	if math.IsNaN(d.LogLik) {
		return fmt.Errorf("fsio: delta log-likelihood is NaN")
	}
	if len(d.Ck) != d.K {
		return fmt.Errorf("fsio: delta has %d topic counts, want K=%d", len(d.Ck), d.K)
	}
	if int64(len(d.Cells)) > int64(d.V)*int64(d.K) {
		return fmt.Errorf("fsio: delta declares %d cells for a %d×%d model", len(d.Cells), d.V, d.K)
	}
	for i, c := range d.Cells {
		if c.W < 0 || int(c.W) >= d.V || c.T < 0 || int(c.T) >= d.K {
			return fmt.Errorf("fsio: delta cell %d = (%d,%d) outside %d×%d", i, c.W, c.T, d.V, d.K)
		}
		if c.Add == 0 {
			return fmt.Errorf("fsio: delta cell %d = (%d,%d) carries a zero add", i, c.W, c.T)
		}
		if i > 0 {
			p := d.Cells[i-1]
			if c.W < p.W || (c.W == p.W && c.T <= p.T) {
				return fmt.Errorf("fsio: delta cells not in strictly ascending (w,t) order at index %d", i)
			}
		}
	}
	for t, c := range d.Ck {
		if c < 0 {
			return fmt.Errorf("fsio: negative delta topic count Ck[%d] = %d", t, c)
		}
	}
	if want := ChainFingerprint(d.BaseFP, d.Gen, d.Cells, d.Ck); d.NewFP != want {
		return fmt.Errorf("fsio: delta chain fingerprint mismatch (file %016x, computed %016x)", d.NewFP, want)
	}
	return nil
}

// WriteDelta serializes d in the WARPDLT format (magic, checksummed
// body, CRC32 trailer) and returns the byte count. The delta is
// validated first; writing an inconsistent delta is refused.
func (d *ModelDelta) WriteDelta(w io.Writer) (int64, error) {
	if err := d.Validate(); err != nil {
		return 0, err
	}
	bw := bufio.NewWriter(w)
	n, _, err := WriteEnvelope(bw, DeltaMagic, func(w io.Writer) error {
		for _, v := range []any{
			int64(d.V), int64(d.K), d.Gen, d.BaseFP, d.NewFP, d.Iter, d.LogLik,
			int64(len(d.Cells)), d.Cells, d.Ck,
		} {
			if err := binary.Write(w, binary.LittleEndian, v); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return n, err
	}
	return n, bw.Flush()
}

// ReadDelta deserializes one WARPDLT file: magic, body, CRC trailer,
// then Validate. Allocation is bounded by the bytes actually read, not
// by the header's declared counts (ReadSlice), so a hostile input can
// neither panic the decoder nor over-allocate.
func ReadDelta(r io.Reader) (*ModelDelta, error) {
	er, err := NewReader(bufio.NewReader(r), DeltaMagic)
	if err != nil {
		return nil, fmt.Errorf("fsio: reading delta header: %w", err)
	}
	var v64, k64, gen, iter, nCells int64
	var baseFP, newFP uint64
	var logLik float64
	for _, p := range []any{&v64, &k64, &gen, &baseFP, &newFP, &iter, &logLik, &nCells} {
		if err := binary.Read(er, binary.LittleEndian, p); err != nil {
			return nil, fmt.Errorf("fsio: reading delta header: %w", err)
		}
	}
	const maxDim = 1 << 31
	if v64 <= 0 || k64 <= 0 || v64 > maxDim || k64 > maxDim || v64*k64 > maxDim {
		return nil, fmt.Errorf("fsio: implausible delta dims V=%d K=%d", v64, k64)
	}
	if nCells < 0 || nCells > MaxDeltaCells || nCells > v64*k64 {
		return nil, fmt.Errorf("fsio: delta declares %d cells for a %d×%d model", nCells, v64, k64)
	}
	d := &ModelDelta{
		V: int(v64), K: int(k64), Gen: gen,
		BaseFP: baseFP, NewFP: newFP, Iter: iter, LogLik: logLik,
	}
	if d.Cells, err = ReadSlice[DeltaCell](er, int(nCells)); err != nil {
		return nil, fmt.Errorf("fsio: reading delta cells: %w", err)
	}
	if d.Ck, err = ReadSlice[int64](er, int(k64)); err != nil {
		return nil, fmt.Errorf("fsio: reading delta topic counts: %w", err)
	}
	if err := er.Close(); err != nil {
		return nil, fmt.Errorf("fsio: delta %w", err)
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

// DiffCounts computes the delta cells between two count matrices of the
// same V×K shape, in the ascending (w,t) order WARPDLT requires. It is
// the writer-side inverse of the fold: applying the returned cells to
// old yields new.
func DiffCounts(v, k int, old, new []int32) []DeltaCell {
	var cells []DeltaCell
	for w := 0; w < v; w++ {
		row0 := old[w*k : (w+1)*k]
		row1 := new[w*k : (w+1)*k]
		for t := 0; t < k; t++ {
			if row0[t] != row1[t] {
				cells = append(cells, DeltaCell{W: int32(w), T: int32(t), Add: row1[t] - row0[t]})
			}
		}
	}
	return cells
}
