package baselines

import (
	"io"

	"warplda/internal/corpus"
	"warplda/internal/ftree"
	"warplda/internal/sampler"
)

// FPlusLDA is Yu, Hsieh, Yun, Vishwanathan & Dhillon's (WWW 2015) F+LDA:
// the same factorization as AliasLDA,
//
//	p(k) ∝ C_dk f(k) + α f(k),   f(k) = (C_wk+β)/(C_k+β̄)
//
// but visiting tokens *word-by-word* and sampling the smoothing term
// exactly from an F+ tree over f — no staleness, no MH correction. The
// doc term is an O(K_d) enumeration of the current document's non-zero
// topics, which is the O(DK) random access Table 2 charges to F+LDA.
type FPlusLDA struct {
	*state
	wm        *corpus.WordMajor
	tokenPos  []int32   // per word-major slot, the token index n within its document
	docTopics [][]int32 // non-zero topic list per document
	tree      *ftree.Tree
	buildBuf  []float64
}

// NewFPlusLDA builds the sampler with random initialization.
func NewFPlusLDA(c *corpus.Corpus, cfg sampler.Config) (*FPlusLDA, error) {
	st, err := newState(c, cfg)
	if err != nil {
		return nil, err
	}
	f := &FPlusLDA{state: st, tree: ftree.New(cfg.K)}
	f.wm = corpus.BuildWordMajor(c)
	// Map word-major slots back to (doc, position) so z can be updated.
	f.tokenPos = make([]int32, c.NumTokens())
	next := make([]int32, c.V)
	copy(next, f.wm.Start[:c.V])
	for _, doc := range c.Docs {
		for n, w := range doc {
			f.tokenPos[next[w]] = int32(n)
			next[w]++
		}
	}
	f.docTopics = make([][]int32, c.NumDocs())
	for d := range c.Docs {
		row := st.cdRow(d)
		for k, cnt := range row {
			if cnt > 0 {
				f.docTopics[d] = append(f.docTopics[d], int32(k))
			}
		}
	}
	return f, nil
}

// Name implements sampler.Sampler.
func (f *FPlusLDA) Name() string { return "F+LDA" }

const fldaStateTag = "flda\x01"

// StateTo writes the one-shard checkpoint stream. The F+ tree is
// rebuilt per word inside Iterate and the word-major index is
// immutable, so beyond the base only the per-document topic lists (scan
// order matters) are state.
func (f *FPlusLDA) StateTo(w io.Writer) error {
	e := sampler.NewEnc(w)
	e.Tag(fldaStateTag)
	f.encodeBase(e)
	e.I32Mat(f.docTopics)
	return e.Err()
}

// RestoreFrom restores what StateTo wrote.
func (f *FPlusLDA) RestoreFrom(r io.Reader) error {
	d := sampler.NewDec(r)
	d.Tag(fldaStateTag)
	z, rngState := f.decodeBase(d)
	if d.Err() != nil {
		return d.Err()
	}
	cd := make([]int32, len(f.cd))
	for di := range f.c.Docs {
		for _, t := range z[di] {
			cd[di*f.k+int(t)]++
		}
	}
	docTopics := decodeTopicLists(d, "doc topic lists", cd, f.c.NumDocs(), f.k)
	if err := d.Err(); err != nil {
		return err
	}
	f.commitBase(z, rngState)
	f.docTopics = docTopics
	return nil
}

func (f *FPlusLDA) treeWeight(w int32, k int32) float64 {
	return (float64(f.cwRow(w)[k]) + f.beta) / (float64(f.ck[k]) + f.betaBar)
}

// Iterate implements sampler.Sampler: one word-by-word sweep.
func (f *FPlusLDA) Iterate() {
	for w := int32(0); w < int32(f.c.V); w++ {
		lo, hi := f.wm.Start[w], f.wm.Start[w+1]
		if lo == hi {
			continue
		}
		// Build the F+ tree over f(k) for this word: O(K) bulk build
		// (per-leaf Set would be O(K log K)).
		cw := f.cwRow(w)
		if f.buildBuf == nil {
			f.buildBuf = make([]float64, f.k)
		}
		for k := 0; k < f.k; k++ {
			f.buildBuf[k] = (float64(cw[k]) + f.beta) / (float64(f.ck[k]) + f.betaBar)
		}
		f.tree.Build(f.buildBuf)
		for i := lo; i < hi; i++ {
			d := int(f.wm.DocID[i])
			n := int(f.tokenPos[i])
			old := f.z[d][n]
			f.remove(d, w, old)
			f.tree.Set(int(old), f.treeWeight(w, old))
			cd := f.cdRow(d)
			if cd[old] == 0 {
				f.docTopics[d] = dropTopic(f.docTopics[d], old)
			}

			// Doc part mass via tree lookups on the non-zero doc topics.
			var pd float64
			for _, k := range f.docTopics[d] {
				pd += float64(cd[k]) * f.tree.Get(int(k))
			}
			ps := f.alpha * f.tree.Total()

			var t int32
			if f.r.Float64()*(pd+ps) < pd {
				u := f.r.Float64() * pd
				t = f.docTopics[d][len(f.docTopics[d])-1]
				for _, k := range f.docTopics[d] {
					u -= float64(cd[k]) * f.tree.Get(int(k))
					if u <= 0 {
						t = k
						break
					}
				}
			} else {
				t = int32(f.tree.Sample(f.r))
			}

			if cd[t] == 0 {
				f.docTopics[d] = append(f.docTopics[d], t)
			}
			f.add(d, w, t)
			f.tree.Set(int(t), f.treeWeight(w, t))
			f.z[d][n] = t
		}
	}
}
