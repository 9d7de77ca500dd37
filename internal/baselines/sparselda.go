package baselines

import (
	"io"

	"warplda/internal/corpus"
	"warplda/internal/sampler"
)

// SparseLDA is Yao, Mimno & McCallum's (KDD 2009) sparsity-aware sampler.
// It factorizes the CGS conditional into three buckets
//
//	p(k) ∝ C_wk (C_dk+α)/(C_k+β̄)   [q: word bucket,  O(K_w)]
//	     +  β C_dk /(C_k+β̄)         [r: doc bucket,   O(K_d)]
//	     +  α β   /(C_k+β̄)          [s: smoothing,    cached]
//
// and only enumerates the non-zero entries of the sparse rows c_w and
// c_d, giving O(K_d + K_w) per token. The smoothing normalizer s and the
// document normalizer r are maintained incrementally.
type SparseLDA struct {
	*state
	ssum float64 // Σ_k αβ/(C_k+β̄)

	// Sparse views of the count rows, maintained incrementally: non-zero
	// topic lists per word and per document.
	wordTopics [][]int32
	docTopics  [][]int32
}

// NewSparseLDA builds the sampler with random initialization.
func NewSparseLDA(c *corpus.Corpus, cfg sampler.Config) (*SparseLDA, error) {
	st, err := newState(c, cfg)
	if err != nil {
		return nil, err
	}
	s := &SparseLDA{state: st}
	s.wordTopics = make([][]int32, c.V)
	for w := 0; w < c.V; w++ {
		row := st.cwRow(int32(w))
		for k, cnt := range row {
			if cnt > 0 {
				s.wordTopics[w] = append(s.wordTopics[w], int32(k))
			}
		}
	}
	s.docTopics = make([][]int32, c.NumDocs())
	for d := range c.Docs {
		row := st.cdRow(d)
		for k, cnt := range row {
			if cnt > 0 {
				s.docTopics[d] = append(s.docTopics[d], int32(k))
			}
		}
	}
	s.recomputeSSum()
	return s, nil
}

// Name implements sampler.Sampler.
func (s *SparseLDA) Name() string { return "SparseLDA" }

const sparseLDAStateTag = "sprs\x01"

// StateTo writes the one-shard checkpoint stream. Beyond the shared
// base, the incrementally maintained non-zero topic lists are state:
// bucket sampling scans them cumulatively, so their *order* (scrambled
// by swap-remove over the run) matters for bit-identical resume. ssum
// is rebuilt at the top of every Iterate and so is not serialized.
func (s *SparseLDA) StateTo(w io.Writer) error {
	e := sampler.NewEnc(w)
	e.Tag(sparseLDAStateTag)
	s.encodeBase(e)
	e.I32Mat(s.docTopics)
	e.I32Mat(s.wordTopics)
	return e.Err()
}

// RestoreFrom restores what StateTo wrote.
func (s *SparseLDA) RestoreFrom(r io.Reader) error {
	d := sampler.NewDec(r)
	d.Tag(sparseLDAStateTag)
	z, rngState := s.decodeBase(d)
	if d.Err() != nil {
		return d.Err()
	}
	// The topic lists are validated against counts recomputed from the
	// *decoded* z, before anything is committed.
	cd := make([]int32, len(s.cd))
	cw := make([]int32, len(s.cw))
	for di, doc := range s.c.Docs {
		for n, w := range doc {
			t := z[di][n]
			cd[di*s.k+int(t)]++
			cw[int(w)*s.k+int(t)]++
		}
	}
	docTopics := decodeTopicLists(d, "doc topic lists", cd, s.c.NumDocs(), s.k)
	wordTopics := decodeTopicLists(d, "word topic lists", cw, s.c.V, s.k)
	if err := d.Err(); err != nil {
		return err
	}
	s.commitBase(z, rngState)
	s.docTopics = docTopics
	s.wordTopics = wordTopics
	s.recomputeSSum()
	return nil
}

func (s *SparseLDA) recomputeSSum() {
	s.ssum = 0
	for k := 0; k < s.k; k++ {
		s.ssum += s.alpha * s.beta / (float64(s.ck[k]) + s.betaBar)
	}
}

// ckChanged updates ssum for one topic whose global count moved from old
// to new.
func (s *SparseLDA) ckChanged(k int32, old, new int32) {
	s.ssum -= s.alpha * s.beta / (float64(old) + s.betaBar)
	s.ssum += s.alpha * s.beta / (float64(new) + s.betaBar)
}

func dropTopic(list []int32, k int32) []int32 {
	for i, t := range list {
		if t == k {
			list[i] = list[len(list)-1]
			return list[:len(list)-1]
		}
	}
	return list
}

// Iterate implements sampler.Sampler: one document-by-document sweep.
func (s *SparseLDA) Iterate() {
	// Guard against float drift: rebuild the smoothing sum once per pass.
	s.recomputeSSum()
	for d, doc := range s.c.Docs {
		cd := s.cdRow(d)
		// Document bucket normalizer for this document.
		var rsum float64
		for _, k := range s.docTopics[d] {
			rsum += s.beta * float64(cd[k]) / (float64(s.ck[k]) + s.betaBar)
		}
		for n, w := range doc {
			old := s.z[d][n]
			// Remove the token, updating every incremental quantity.
			oldCk := s.ck[old]
			rsum -= s.beta * float64(cd[old]) / (float64(oldCk) + s.betaBar)
			s.remove(d, w, old)
			s.ckChanged(old, oldCk, s.ck[old])
			rsum += s.beta * float64(cd[old]) / (float64(s.ck[old]) + s.betaBar)
			if cd[old] == 0 {
				s.docTopics[d] = dropTopic(s.docTopics[d], old)
			}
			if s.cwRow(w)[old] == 0 {
				s.wordTopics[w] = dropTopic(s.wordTopics[w], old)
			}

			// Word bucket: O(K_w) enumeration.
			cw := s.cwRow(w)
			var qsum float64
			for _, k := range s.wordTopics[w] {
				qsum += float64(cw[k]) * (float64(cd[k]) + s.alpha) /
					(float64(s.ck[k]) + s.betaBar)
			}

			u := s.r.Float64() * (s.ssum + rsum + qsum)
			var t int32 = -1
			switch {
			case u < qsum:
				for _, k := range s.wordTopics[w] {
					u -= float64(cw[k]) * (float64(cd[k]) + s.alpha) /
						(float64(s.ck[k]) + s.betaBar)
					if u <= 0 {
						t = k
						break
					}
				}
				if t < 0 {
					t = s.wordTopics[w][len(s.wordTopics[w])-1]
				}
			case u < qsum+rsum:
				u -= qsum
				for _, k := range s.docTopics[d] {
					u -= s.beta * float64(cd[k]) / (float64(s.ck[k]) + s.betaBar)
					if u <= 0 {
						t = k
						break
					}
				}
				if t < 0 {
					t = s.docTopics[d][len(s.docTopics[d])-1]
				}
			default:
				u -= qsum + rsum
				for k := 0; k < s.k; k++ {
					u -= s.alpha * s.beta / (float64(s.ck[k]) + s.betaBar)
					if u <= 0 {
						t = int32(k)
						break
					}
				}
				if t < 0 {
					t = int32(s.k - 1)
				}
			}

			// Add the token back with its new topic.
			if cd[t] == 0 {
				s.docTopics[d] = append(s.docTopics[d], t)
			}
			if cw[t] == 0 {
				s.wordTopics[w] = append(s.wordTopics[w], t)
			}
			newCkOld := s.ck[t]
			rsum -= s.beta * float64(cd[t]) / (float64(newCkOld) + s.betaBar)
			s.add(d, w, t)
			s.ckChanged(t, newCkOld, s.ck[t])
			rsum += s.beta * float64(cd[t]) / (float64(s.ck[t]) + s.betaBar)
			s.z[d][n] = t
		}
	}
}
