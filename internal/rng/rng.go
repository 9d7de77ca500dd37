// Package rng provides a small, fast, deterministic pseudo-random number
// generator used by all samplers in this repository.
//
// LDA samplers draw billions of random numbers; math/rand's global source
// is locked and the default Source is slower than needed. RNG here is a
// xoshiro256** generator seeded via splitmix64, which passes BigCrush and
// costs a handful of arithmetic instructions per draw. Every component of
// the system takes an explicit *RNG so experiments are reproducible from a
// single seed.
package rng

import (
	"math"
	"math/bits"
)

// RNG is a xoshiro256** pseudo-random number generator. The zero value is
// not a valid generator; use New.
type RNG struct {
	s0, s1, s2, s3 uint64
}

// splitmix64 advances the seed and returns the next splitmix64 output.
// It is the recommended seeding procedure for xoshiro generators: it
// guarantees the four state words are not all zero and are well mixed
// even for small consecutive seeds.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator seeded from seed. Two generators built from the
// same seed produce identical streams.
func New(seed uint64) *RNG {
	r := &RNG{}
	r.Seed(seed)
	return r
}

// Seed resets the generator state as if it had been created by New(seed).
func (r *RNG) Seed(seed uint64) {
	r.s0 = splitmix64(&seed)
	r.s1 = splitmix64(&seed)
	r.s2 = splitmix64(&seed)
	r.s3 = splitmix64(&seed)
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s1*5, 7) * 9
	t := r.s1 << 17
	r.s2 ^= r.s0
	r.s3 ^= r.s1
	r.s1 ^= r.s2
	r.s0 ^= r.s3
	r.s2 ^= t
	r.s3 = rotl(r.s3, 45)
	return result
}

// Uint32 returns the next 32 uniformly distributed bits.
func (r *RNG) Uint32() uint32 { return uint32(r.Uint64() >> 32) }

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
// (Paper Alg 2 calls this Dice(n).)
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	if uint64(n) > math.MaxUint32 {
		return int(r.uint64n(uint64(n)))
	}
	// Lemire's multiply-shift rejection method: unbiased and avoids the
	// modulo instruction on the fast path.
	v := uint64(uint32(n))
	x := uint64(r.Uint32()) * v
	if lo := uint32(x); lo < uint32(n) {
		thresh := uint32(-v) % uint32(v)
		for lo < thresh {
			x = uint64(r.Uint32()) * v
			lo = uint32(x)
		}
	}
	return int(x >> 32)
}

// uint64n is Intn for bounds that do not fit 32 bits: the same
// rejection method on whole 64-bit words with a 128-bit product.
func (r *RNG) uint64n(n uint64) uint64 {
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), n)
		}
	}
	return hi
}

// Unit maps a generator word to a uniform float64 in [0, 1) through its
// high 53 bits. Loops that keep a copy of the generator in registers
// call it on the words they draw themselves.
func Unit(x uint64) float64 { return float64(x>>11) * (1.0 / (1 << 53)) }

// AcceptMask is the Metropolis–Hastings decision of a proposal whose
// acceptance rate is π = num/den (den > 0), taken on the generator word
// x without dividing and without a branch: all ones when u·den ≤ num for
// u = Unit(x), else zero. Since u < 1 it accepts every π ≥ 1 step; for
// π < 1 it accepts with probability π (the tie u·den = num has measure
// 2⁻⁵³). The decision is the sign bit of num − u·den, and the explicit
// conversion keeps the product rounded on its own, so no target fuses
// it into the subtraction. Kernels select their next state with the mask.
func AcceptMask(x uint64, num, den float64) uint64 {
	return ^uint64(int64(math.Float64bits(num-float64(Unit(x)*den))) >> 63)
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 { return Unit(r.Uint64()) }

// Gamma returns a Gamma(shape, 1) distributed value using the
// Marsaglia–Tsang method (for shape >= 1) with the standard boost for
// shape < 1. Used by the synthetic corpus generator to draw Dirichlet
// vectors.
func (r *RNG) Gamma(shape float64) float64 {
	if shape <= 0 {
		panic("rng: Gamma with non-positive shape")
	}
	if shape < 1 {
		// Gamma(a) = Gamma(a+1) * U^{1/a}
		u := r.Float64()
		for u == 0 {
			u = r.Float64()
		}
		return r.Gamma(shape+1) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := r.Normal()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := r.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// Normal returns a standard normal variate (polar Box–Muller without
// caching the spare, to keep the generator state a pure function of the
// draw count).
func (r *RNG) Normal() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// Dirichlet fills out with a sample from Dirichlet(alpha, ..., alpha) of
// dimension len(out). out must be non-empty.
func (r *RNG) Dirichlet(alpha float64, out []float64) {
	var sum float64
	for i := range out {
		g := r.Gamma(alpha)
		out[i] = g
		sum += g
	}
	if sum == 0 {
		// Extremely small alpha can underflow every gamma draw; fall back
		// to a one-hot sample, which is the correct limit distribution.
		out[r.Intn(len(out))] = 1
		return
	}
	for i := range out {
		out[i] /= sum
	}
}

// Split returns a new generator seeded from this one's stream. Use it to
// hand independent streams to worker goroutines.
func (r *RNG) Split() *RNG {
	return New(r.Uint64())
}

// Derive returns a generator deterministically derived from seed and a
// sequence of salts. It is the documented reseeding strategy for
// *elastic* checkpoint resume: when a run restarts with a different
// worker count, the saved per-worker streams no longer map one-to-one
// onto workers, so each new worker w of p total resuming at iteration i
// draws its stream from Derive(seed, i, p, w). The derivation folds
// every salt through one splitmix64 step (the same mixer New uses), so
// streams for different (iteration, worker-count, worker) triples are
// statistically independent of each other and of every Split stream,
// while identical inputs always yield the identical stream — resuming
// the same checkpoint into the same topology twice is deterministic.
func Derive(seed uint64, salts ...uint64) *RNG {
	x := seed
	for _, s := range salts {
		x ^= s + 0x9e3779b97f4a7c15 + (x << 6) + (x >> 2)
		x = splitmix64(&x)
	}
	return New(x)
}

// State returns the generator's four state words. Together with SetState
// it lets long-running samplers checkpoint and resume their random
// streams bit-identically: a generator restored from a saved state
// produces exactly the draws the original would have produced next.
func (r *RNG) State() [4]uint64 {
	return [4]uint64{r.s0, r.s1, r.s2, r.s3}
}

// SetState restores the generator to a state captured by State. An
// all-zero state is invalid for xoshiro256** (the generator would emit
// only zeros forever), so it is replaced by Seed(0)'s state — which can
// never be produced by State on a properly seeded generator.
func (r *RNG) SetState(s [4]uint64) {
	if s[0] == 0 && s[1] == 0 && s[2] == 0 && s[3] == 0 {
		r.Seed(0)
		return
	}
	r.s0, r.s1, r.s2, r.s3 = s[0], s[1], s[2], s[3]
}
