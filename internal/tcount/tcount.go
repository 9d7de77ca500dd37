// Package tcount provides topic-count vectors: the sparse per-document
// row cd and per-word row cw that every LDA sampler reads and writes on
// its hot path.
//
// Section 5.4 of the WarpLDA paper prescribes an open-addressing hash
// table with linear probing and an and-mask hash, sized to the minimum
// power of two ≥ min(K, 2L) — much smaller than a dense K-vector when the
// row is sparse, so it both clears faster and keeps the randomly accessed
// working set inside the cache. This package implements that table plus a
// dense variant, behind one interface so samplers can pick per row.
package tcount

// Counter is a non-negative integer vector indexed by topic, supporting
// the operations samplers need: point reads/updates and iteration over
// the non-zero entries.
type Counter interface {
	// Get returns the count of topic k.
	Get(k int32) int32
	// Incr adds one to topic k.
	Incr(k int32)
	// Decr subtracts one from topic k. Decrementing a zero count panics
	// in the dense implementation and is a programming error in both.
	Decr(k int32)
	// NonZero calls fn for every topic with a positive count. Order is
	// unspecified. fn must not mutate the counter.
	NonZero(fn func(k, count int32))
	// Distinct returns the number of topics with positive count (Kd/Kw in
	// the paper's notation).
	Distinct() int
	// Reset restores all counts to zero.
	Reset()
}

// Dense is a Counter backed by a K-sized array with a touched list, so
// Reset and NonZero cost O(topics touched since the last Reset) rather
// than O(K). Best when K is small or the row is nearly full.
type Dense struct {
	counts  []int32
	touched []int32 // topics that left zero at least once; may contain duplicates
	nonzero int
}

// NewDense returns a dense counter over topics 0..k-1.
func NewDense(k int) *Dense {
	return &Dense{counts: make([]int32, k)}
}

// Get implements Counter.
func (d *Dense) Get(k int32) int32 { return d.counts[k] }

// Incr implements Counter.
func (d *Dense) Incr(k int32) {
	if d.counts[k] == 0 {
		d.nonzero++
		d.touched = append(d.touched, k)
	}
	d.counts[k]++
}

// Decr implements Counter.
func (d *Dense) Decr(k int32) {
	if d.counts[k] == 0 {
		panic("tcount: Decr below zero")
	}
	d.counts[k]--
	if d.counts[k] == 0 {
		d.nonzero--
	}
}

// NonZero implements Counter. Duplicate touched entries (a topic that
// bounced through zero) are visited once: visited counts are negated
// during the sweep and restored afterwards.
func (d *Dense) NonZero(fn func(k, count int32)) {
	for _, k := range d.touched {
		if c := d.counts[k]; c > 0 {
			fn(k, c)
			d.counts[k] = -c
		}
	}
	for _, k := range d.touched {
		if c := d.counts[k]; c < 0 {
			d.counts[k] = -c
		}
	}
}

// Distinct implements Counter.
func (d *Dense) Distinct() int { return d.nonzero }

// Reset implements Counter in O(touched).
func (d *Dense) Reset() {
	for _, k := range d.touched {
		d.counts[k] = 0
	}
	d.touched = d.touched[:0]
	d.nonzero = 0
}

// K returns the dimension of the counter.
func (d *Dense) K() int { return len(d.counts) }

// Raw exposes the backing array for O(K) scans (e.g. building a dense
// alias table). Callers must not modify it.
func (d *Dense) Raw() []int32 { return d.counts }

// Hash is a Counter backed by an open-addressing hash table with linear
// probing. Keys are topics (int32 ≥ 0); the hash is key & mask, exactly
// the "simple and function" from the paper. Empty slots hold key -1.
//
// The table never deletes slots on Decr (tombstone-free): a slot whose
// count reaches zero keeps its key so probe chains stay intact; Reset
// clears everything. This matches the usage pattern — counts are built
// up for one row, consumed, and reset.
type Hash struct {
	keys    []int32
	vals    []int32
	mask    int32
	used    int // occupied slots (including count==0 ones)
	nonzero int
}

// NewHash returns a hash counter with capacity for roughly expected
// distinct topics. Capacity is the minimum power of two ≥ max(8,
// 2*expected); the table grows automatically if the estimate is low.
func NewHash(expected int) *Hash {
	capPow2 := 8
	for capPow2 < 2*expected {
		capPow2 <<= 1
	}
	h := &Hash{
		keys: make([]int32, capPow2),
		vals: make([]int32, capPow2),
		mask: int32(capPow2 - 1),
	}
	for i := range h.keys {
		h.keys[i] = -1
	}
	return h
}

// CapacityFor returns the paper's table capacity rule: the minimum power
// of two larger than min(k, 2l).
func CapacityFor(k, l int) int {
	n := k
	if 2*l < n {
		n = 2 * l
	}
	capPow2 := 8
	for capPow2 <= n {
		capPow2 <<= 1
	}
	return capPow2
}

func (h *Hash) slot(k int32) int32 {
	i := k & h.mask
	for {
		kk := h.keys[i]
		if kk == k || kk == -1 {
			return i
		}
		i = (i + 1) & h.mask
	}
}

// Get implements Counter.
func (h *Hash) Get(k int32) int32 {
	i := h.slot(k)
	if h.keys[i] == -1 {
		return 0
	}
	return h.vals[i]
}

// Incr implements Counter.
func (h *Hash) Incr(k int32) {
	i := h.slot(k)
	if h.keys[i] == -1 {
		if 4*(h.used+1) > 3*len(h.keys) { // load factor 0.75
			h.grow()
			i = h.slot(k)
		}
		h.keys[i] = k
		h.vals[i] = 0
		h.used++
	}
	if h.vals[i] == 0 {
		h.nonzero++
	}
	h.vals[i]++
}

// Decr implements Counter.
func (h *Hash) Decr(k int32) {
	i := h.slot(k)
	if h.keys[i] == -1 || h.vals[i] == 0 {
		panic("tcount: Decr below zero")
	}
	h.vals[i]--
	if h.vals[i] == 0 {
		h.nonzero--
	}
}

// NonZero implements Counter.
func (h *Hash) NonZero(fn func(k, count int32)) {
	for i, k := range h.keys {
		if k != -1 && h.vals[i] > 0 {
			fn(k, h.vals[i])
		}
	}
}

// Distinct implements Counter.
func (h *Hash) Distinct() int { return h.nonzero }

// Reset implements Counter. O(capacity), which the capacity rule keeps at
// O(min(K, 2L)).
func (h *Hash) Reset() {
	for i := range h.keys {
		h.keys[i] = -1
	}
	clear(h.vals)
	h.used = 0
	h.nonzero = 0
}

func (h *Hash) grow() {
	oldKeys, oldVals := h.keys, h.vals
	n := len(oldKeys) * 2
	h.keys = make([]int32, n)
	h.vals = make([]int32, n)
	h.mask = int32(n - 1)
	h.used = 0
	h.nonzero = 0
	for i := range h.keys {
		h.keys[i] = -1
	}
	for i, k := range oldKeys {
		if k != -1 && oldVals[i] > 0 {
			j := h.slot(k)
			h.keys[j] = k
			h.vals[j] = oldVals[i]
			h.used++
			h.nonzero++
		}
	}
}

// Capacity returns the current slot count (power of two).
func (h *Hash) Capacity() int { return len(h.keys) }

// ResetFor clears the table and sizes it per the paper's rule for a row
// of length l over k topics (minimum power of two > min(k, 2l)), reusing
// the backing arrays when they are large enough. Clearing cost is
// O(resulting capacity), which is the point: a short row costs a short
// clear.
func (h *Hash) ResetFor(k, l int) {
	want := CapacityFor(k, l)
	if want > cap(h.keys) {
		h.keys = make([]int32, want)
		h.vals = make([]int32, want)
	} else {
		h.keys = h.keys[:want]
		h.vals = h.vals[:want]
	}
	h.mask = int32(want - 1)
	for i := range h.keys {
		h.keys[i] = -1
	}
	clear(h.vals)
	h.used = 0
	h.nonzero = 0
}
