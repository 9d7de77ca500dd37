package infer

import "math"

// This file is the analytics-side view of the fold-in engine: instead
// of a dense θ̂ over all K topics, InferSparse returns only the topics
// the chain actually assigned tokens to — at most min(K, len(doc))
// entries. internal/query composes these into similar-document search
// (sparse dot products touch only the entries both documents share)
// and top-documents-per-topic ranking without ever allocating K floats
// per candidate document.

// ThetaEntry is one non-zero component of a sparse topic mixture:
// Weight is the fraction of the document's tokens assigned to Topic
// (unsmoothed, so absent topics are exactly zero and the weights of
// one document sum to 1). Entries are sorted by Topic.
type ThetaEntry struct {
	Topic  int32   `json:"topic"`
	Weight float64 `json:"weight"`
}

// SparseDot returns the dot product of two sparse mixtures, both
// sorted by topic, via a linear two-pointer merge.
func SparseDot(a, b []ThetaEntry) float64 {
	var dot float64
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i].Topic < b[j].Topic:
			i++
		case a[i].Topic > b[j].Topic:
			j++
		default:
			dot += a[i].Weight * b[j].Weight
			i++
			j++
		}
	}
	return dot
}

// Cosine returns the cosine similarity of two sparse mixtures (0 when
// either is empty).
func Cosine(a, b []ThetaEntry) float64 {
	var na, nb float64
	for _, e := range a {
		na += e.Weight * e.Weight
	}
	for _, e := range b {
		nb += e.Weight * e.Weight
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return SparseDot(a, b) / (math.Sqrt(na) * math.Sqrt(nb))
}

// InferSparse folds doc in and returns its sparse topic mixture: only
// the topics holding at least one assigned token after the final
// sweep, sorted by topic id. The per-document RNG seed is derived from
// (seed, doc content) exactly as the batched dense path derives it, so
// the result is deterministic in (doc, sweeps, seed) alone and
// consistent with InferBatch: a document's sparse mixture is the
// unsmoothed restriction of its dense θ̂ to its occupied topics. An
// empty document returns nil.
func (e *Engine) InferSparse(doc []int32, sweeps int, seed uint64) ([]ThetaEntry, error) {
	if err := e.validateDoc(doc); err != nil {
		return nil, err
	}
	e.statDispatches.Add(1)
	e.statDocs.Add(1)
	if len(doc) == 0 {
		return nil, nil
	}
	sc := e.getScratch()
	defer e.putScratch(sc)
	e.runChain(doc, sweeps, docSeed(seed, doc), sc)
	return sparseTheta(sc.cd, len(doc)), nil
}

// sparseTheta extracts the non-zero entries of the doc-topic counts;
// cd is scanned in topic order, so the result is sorted by topic.
func sparseTheta(cd []int32, ld int) []ThetaEntry {
	n := 0
	for _, c := range cd {
		if c > 0 {
			n++
		}
	}
	out := make([]ThetaEntry, 0, n)
	inv := 1 / float64(ld)
	for k, c := range cd {
		if c > 0 {
			out = append(out, ThetaEntry{Topic: int32(k), Weight: float64(c) * inv})
		}
	}
	return out
}
