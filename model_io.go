package warplda

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"

	"warplda/internal/eval"
	"warplda/internal/fsio"
)

// modelMagic opens a model file; the version byte is bumped on
// incompatible changes. After it come the header (V, K, α, β, logLik),
// Cw, Ck, the vocabulary block, and the fsio envelope's CRC32 trailer
// over every byte after the magic. The checksum lets a reloading server
// reject torn or corrupted files instead of serving garbage.
const modelMagic = "WARPLDA\x02"

// WriteTo serializes the model in a compact binary format (little
// endian): header, config, counts, optional vocabulary, CRC32 trailer.
// It implements io.WriterTo.
func (m *Model) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	n, _, err := fsio.WriteEnvelope(bw, modelMagic, m.writeBody)
	if err != nil {
		return n, err
	}
	return n, bw.Flush()
}

// writeBody writes everything between the magic and the trailer; the
// vocabulary block is a flag, then length-prefixed words.
func (m *Model) writeBody(w io.Writer) error {
	hasVocab := int64(0)
	if m.Vocab != nil {
		hasVocab = 1
	}
	for _, v := range []any{int64(m.V), int64(m.Cfg.K), m.Cfg.Alpha, m.Cfg.Beta, m.LogLik, m.Cw, m.Ck, hasVocab} {
		if err := binary.Write(w, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	for _, word := range m.Vocab {
		if err := binary.Write(w, binary.LittleEndian, int32(len(word))); err != nil {
			return err
		}
		if _, err := io.WriteString(w, word); err != nil {
			return err
		}
	}
	return nil
}

// WriteFile writes the model snapshot to path atomically: a temp file
// in the target directory, fsync, then rename. A process hot-watching
// path (the serving registry's reload poller) can therefore never
// observe a partial write — it sees the old complete file or the new
// complete file, and anything else fails the format's checksum.
func (m *Model) WriteFile(path string) (int64, error) {
	return fsio.AtomicWriteFile(path, ".warplda-model-*", m.WriteTo)
}

// ReadModel deserializes a model written by WriteTo. A trailer
// mismatch (torn write, bit rot) is an error before any model is
// returned. The pre-checksum v1 layout is refused by name: with no
// trailer, a damaged v1 file could not be told from a sound one.
//
// Cw is allocated once when r is a file (or an in-memory reader) whose
// remaining bytes cover it; otherwise it grows as its bytes arrive, so
// a forged length fails at the end of the input.
func ReadModel(r io.Reader) (*Model, error) {
	avail := remaining(r)
	var cw []int32
	m, err := readModel(r, func(m *Model) func([]int32) {
		n := m.V * m.Cfg.K
		if avail >= 4*int64(n) {
			cw = make([]int32, 0, n)
		}
		return func(c []int32) { cw = append(fsio.Grow(cw, n, len(c)), c...) }
	})
	if err != nil {
		return nil, err
	}
	m.Cw = cw
	return m, nil
}

// remaining returns the bytes left in r when r can tell — a regular
// file or a reader with a Len — and -1 otherwise.
func remaining(r io.Reader) int64 {
	switch r := r.(type) {
	case interface{ Len() int }:
		return int64(r.Len())
	case *os.File:
		fi, err := r.Stat()
		if err != nil || !fi.Mode().IsRegular() {
			return -1
		}
		off, err := r.Seek(0, io.SeekCurrent)
		if err != nil {
			return -1
		}
		return fi.Size() - off
	}
	return -1
}

// readModel decodes a v2 model from r and returns it without Cw: the
// header is handed to sink, which returns where the V·K cells of Cw go,
// in row-major chunks of at most countChunk. The cells are checked
// non-negative before a chunk is handed on, and the returned model has
// passed the trailer check.
func readModel(r io.Reader, sink func(*Model) func([]int32)) (*Model, error) {
	br := bufio.NewReader(r)
	if magic, _ := br.Peek(len(modelMagic)); string(magic) == "WARPLDA\x01" {
		return nil, fmt.Errorf("warplda: pre-checksum v1 snapshot: re-save with a current warplda-train")
	}
	er, err := fsio.NewReader(br, modelMagic)
	if err != nil {
		return nil, fmt.Errorf("warplda: reading model header: %w", err)
	}
	m, err := readModelBody(er, sink)
	if err != nil {
		return nil, err
	}
	if err := er.Close(); err != nil {
		return nil, fmt.Errorf("warplda: model %w", err)
	}
	return m, nil
}

// readModelBody parses the post-magic body and validates that the
// result can be served: plausible dims, finite positive priors (a
// NaN/Inf prior would make every Φ̂ entry NaN), and non-negative counts.
func readModelBody(r io.Reader, sink func(*Model) func([]int32)) (*Model, error) {
	read := func(v any) error { return binary.Read(r, binary.LittleEndian, v) }
	var v64, k64 int64
	var alpha, beta, logLik float64
	for _, p := range []any{&v64, &k64, &alpha, &beta, &logLik} {
		if err := read(p); err != nil {
			return nil, fmt.Errorf("warplda: reading model header: %w", err)
		}
	}
	const maxDim = 1 << 31
	if v64 <= 0 || k64 <= 0 || v64 > maxDim || k64 > maxDim || v64*k64 > maxDim {
		return nil, fmt.Errorf("warplda: implausible model dims V=%d K=%d", v64, k64)
	}
	cells := int(v64 * k64)
	if int64(cells) != v64*k64 {
		return nil, fmt.Errorf("warplda: model of V=%d K=%d exceeds this platform's int", v64, k64)
	}
	if !(alpha > 0) || !(beta > 0) || math.IsInf(alpha, 0) || math.IsInf(beta, 0) {
		return nil, fmt.Errorf("warplda: corrupt model hyper-parameters α=%g β=%g (Φ̂ would be NaN or non-normalizable)", alpha, beta)
	}
	if math.IsNaN(logLik) {
		return nil, fmt.Errorf("warplda: corrupt model log-likelihood (NaN)")
	}
	m := &Model{
		Cfg:    Config{K: int(k64), Alpha: alpha, Beta: beta},
		V:      int(v64),
		LogLik: logLik,
	}
	if err := readCounts(r, cells, sink(m)); err != nil {
		return nil, err
	}
	var err error
	if m.Ck, err = fsio.ReadSlice[int64](r, int(k64)); err != nil {
		return nil, fmt.Errorf("warplda: reading counts: %w", err)
	}
	for k, c := range m.Ck {
		if c < 0 {
			return nil, fmt.Errorf("warplda: negative topic count Ck[%d] = %d", k, c)
		}
	}
	var hasVocab int64
	if err := read(&hasVocab); err != nil {
		return nil, fmt.Errorf("warplda: reading vocabulary flag: %w", err)
	}
	switch hasVocab {
	case 0:
	case 1:
		m.Vocab = make([]string, 0, min(int(v64), fsio.AllocChunk))
		for i := 0; i < int(v64); i++ {
			var l int32
			if err := read(&l); err != nil {
				return nil, fmt.Errorf("warplda: reading vocabulary: %w", err)
			}
			if l < 0 || l > 1<<20 {
				return nil, fmt.Errorf("warplda: implausible word length %d", l)
			}
			wbuf := make([]byte, l)
			if _, err := io.ReadFull(r, wbuf); err != nil {
				return nil, fmt.Errorf("warplda: reading vocabulary: %w", err)
			}
			m.Vocab = append(m.Vocab, string(wbuf))
		}
	default:
		return nil, fmt.Errorf("warplda: corrupt vocabulary flag %d", hasVocab)
	}
	return m, nil
}

// countChunk is the number of cells readCounts decodes at a time.
const countChunk = 16 << 10

// readCounts reads the n cells of Cw in chunks of countChunk through one
// buffer, so what it allocates beyond its sink is 8 bytes a cell of one
// chunk, and hands each chunk, checked non-negative, to cells.
func readCounts(r io.Reader, n int, cells func([]int32)) error {
	chunk := min(n, countChunk)
	raw, buf := make([]byte, 4*chunk), make([]int32, chunk)
	for off := 0; off < n; off += chunk {
		c := buf[:min(chunk, n-off)]
		b := raw[:4*len(c)]
		if _, err := io.ReadFull(r, b); err != nil {
			return fmt.Errorf("warplda: reading counts: %w", err)
		}
		for i := range c {
			if c[i] = int32(binary.LittleEndian.Uint32(b[4*i:])); c[i] < 0 {
				return fmt.Errorf("warplda: negative word-topic count Cw[%d] = %d", off+i, c[i])
			}
		}
		cells(c)
	}
	return nil
}

// HeldOutPerplexity evaluates the model on unseen documents: each test
// document is folded in with the O(1)-per-token MH engine (see
// DocTopics) and scored by exp(−(1/T) Σ log p(w | θ̂, Φ̂)) — the
// standard held-out metric. Lower is better.
func (m *Model) HeldOutPerplexity(docs [][]int32, sweeps int, seed uint64) float64 {
	var logp float64
	tokens := 0
	for i, doc := range docs {
		if len(doc) == 0 {
			continue
		}
		theta := m.DocTopics(doc, sweeps, seed+uint64(i))
		for _, w := range doc {
			var p float64
			for k := 0; k < m.Cfg.K; k++ {
				p += theta[k] * m.Phi(int(w), k)
			}
			logp += math.Log(p)
			tokens++
		}
	}
	return eval.Perplexity(logp, tokens)
}

// Split partitions a corpus into train and test halves by document,
// deterministic in seed: each document lands in test with probability
// testFrac. Both halves share V and Vocab.
func Split(c *Corpus, testFrac float64, seed uint64) (train, test *Corpus) {
	r := newFoldInRNG(seed)
	train = &Corpus{V: c.V, Vocab: c.Vocab}
	test = &Corpus{V: c.V, Vocab: c.Vocab}
	for _, doc := range c.Docs {
		if r.Float64() < testFrac {
			test.Docs = append(test.Docs, doc)
		} else {
			train.Docs = append(train.Docs, doc)
		}
	}
	return train, test
}
