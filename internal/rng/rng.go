// Package rng provides the deterministic random-number substrate used by
// every other package in this repository.
//
// All simulated physics (per-cell disturbance thresholds, spatial
// variation fields, workload generation, defense randomness) must be
// bit-reproducible across runs and must be computable lazily for any
// coordinate without materializing state for the whole device. The
// package therefore offers two complementary primitives:
//
//   - Rand: a sequential xoshiro256** stream for places that consume an
//     ordered sequence of random values (workload generators, PARA's coin
//     flips, k-means initialization).
//   - Hash64 / the *At samplers: a stateless stable hash so that the
//     value attached to a coordinate tuple (seed, bank, row, cell, ...)
//     can be recomputed on demand, in any order, from anywhere.
package rng

import "math"

// splitMix64 advances a SplitMix64 state and returns the next value.
// SplitMix64 is the canonical seeding/diffusion function recommended by
// the xoshiro authors; it is also an excellent 64-bit mixer.
func splitMix64(state uint64) (uint64, uint64) {
	state += 0x9e3779b97f4a7c15
	z := state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return state, z ^ (z >> 31)
}

// Mix64 diffuses a single 64-bit value through the SplitMix64 finalizer.
// It is used to derive independent sub-seeds from one master seed.
func Mix64(x uint64) uint64 {
	_, v := splitMix64(x)
	return v
}

// Hash64 hashes an arbitrary tuple of 64-bit coordinates into a single
// well-mixed 64-bit value. Distinct tuples (including tuples of different
// lengths) produce independent-looking outputs.
func Hash64(parts ...uint64) uint64 {
	h := uint64(0x51ed2701a9e0a3d5) // arbitrary odd constant
	for _, p := range parts {
		h = Mix64(h ^ p)
	}
	// Fold in the length so (a) and (a,0) differ.
	return Mix64(h ^ uint64(len(parts))<<56)
}

// Rand is a xoshiro256** pseudo-random stream. The zero value is not
// valid; use New.
type Rand struct {
	s [4]uint64
}

// New returns a stream seeded from seed via SplitMix64, per the xoshiro
// reference implementation.
func New(seed uint64) *Rand {
	var r Rand
	r.Reseed(seed)
	return &r
}

// Reseed reinitializes the stream in place to the exact state New(seed)
// produces — the allocation-free form pooled simulation state uses.
func (r *Rand) Reseed(seed uint64) {
	st := seed
	for i := range r.s {
		st, r.s[i] = splitMix64(st)
	}
}

// State returns the stream's position: SetState(State()) on any Rand
// continues this stream exactly.
func (r *Rand) State() [4]uint64 { return r.s }

// SetState moves the stream to a position State returned.
func (r *Rand) SetState(s [4]uint64) { r.s = s }

// At returns a stream whose seed is the stable hash of the coordinate
// tuple. Streams for distinct tuples are independent.
func At(parts ...uint64) *Rand {
	return New(Hash64(parts...))
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next value of the stream.
func (r *Rand) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a near-uniform value in [0, n). It panics if n <= 0.
//
// Intn deliberately retains the textbook modulo bias of Uint64()%n: the
// bias is at most n/2^64 per value (immeasurable for every n this
// repository uses), and every golden fixture, calibrated module, and
// content-addressed cache key downstream was produced through this
// exact reduction, so changing it would silently move all of them. New
// code that needs exact uniformity — the population sampler — uses
// UintN instead.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	return int(r.Uint64() % uint64(n))
}

// UintN returns an exactly uniform value in [0, n) by bounded rejection:
// values above the largest multiple of n are redrawn, so every residue
// is equally likely (no modulo bias). Powers of two reduce to a mask and
// never reject. It panics if n == 0.
func (r *Rand) UintN(n uint64) uint64 {
	if n == 0 {
		panic("rng: UintN called with n == 0")
	}
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	// Largest multiple of n that fits in a uint64; at worst (n just above
	// 2^63) this rejects just under half of all draws.
	limit := ^uint64(0) - ^uint64(0)%n
	for {
		if v := r.Uint64(); v < limit {
			return v % n
		}
	}
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool {
	return r.Float64() < p
}

// boxMuller maps two uniforms, u1 in (0, 1], to a standard normal variate.
func boxMuller(u1, u2 float64) float64 {
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// NormFloat64 returns a standard normal variate (Box-Muller).
func (r *Rand) NormFloat64() float64 {
	for {
		u1 := r.Float64()
		u2 := r.Float64()
		if u1 <= 0 {
			continue
		}
		return boxMuller(u1, u2)
	}
}

// LogNormal returns exp(N(mu, sigma^2)).
func (r *Rand) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.NormFloat64())
}

// ExpFloat64 returns an exponential variate with rate 1.
func (r *Rand) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// Zipf samples from a Zipf distribution over [0, n) with exponent s > 0,
// using inverse-CDF over precomputed weights. Use NewZipf for repeated
// sampling over the same support.
type Zipf struct {
	cdf []float64
	// coarse[k] is the first index i with cdf[i] >= k/len(coarse): a
	// first-level index that narrows Sample's binary search to a few
	// entries instead of log2(n) cache-missing probes over the full CDF.
	// The narrowed search returns the identical index (first cdf >= u).
	coarse []int32
}

// NewZipf prepares a Zipf sampler over n items with exponent s.
// Item 0 is the most popular. It panics if n <= 0 or s <= 0.
func NewZipf(n int, s float64) *Zipf {
	if n <= 0 {
		panic("rng: NewZipf n <= 0")
	}
	if s <= 0 {
		panic("rng: NewZipf s <= 0")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	coarse := make([]int32, 1024)
	i := 0
	for k := range coarse {
		u := float64(k) / float64(len(coarse))
		for i < n-1 && cdf[i] < u {
			i++
		}
		coarse[k] = int32(i)
	}
	return &Zipf{cdf: cdf, coarse: coarse}
}

// N returns the support size.
func (z *Zipf) N() int { return len(z.cdf) }

// Sample draws one item index from the distribution using stream r.
func (z *Zipf) Sample(r *Rand) int {
	u := r.Float64()
	// Binary search for the first cdf[i] >= u, narrowed by the coarse
	// index: cdf[coarse[k]-1] < k/K <= u (when coarse[k] > 0), and the
	// answer for u < (k+1)/K is at most coarse[k+1].
	k := int(u * float64(len(z.coarse)))
	lo := int(z.coarse[k])
	hi := len(z.cdf) - 1
	if k+1 < len(z.coarse) {
		hi = int(z.coarse[k+1])
	}
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// UniformAt returns the uniform [0,1) value stably attached to a
// coordinate tuple.
func UniformAt(parts ...uint64) float64 {
	return float64(Hash64(parts...)>>11) / (1 << 53)
}

// NormalAtBound bounds |NormalAt|. The variate is Box-Muller over a
// 53-bit uniform clamped to u1 >= 2^-53, so its radius cannot exceed
// sqrt(2*53*ln 2) = 8.5716..., and the cosine only shrinks it. A caller
// that needs the worst case of a sum of NormalAt draws (package
// temporal's factor floor) reads it here; TestNormalAtBound evaluates
// boxMuller at the extremes against it.
const NormalAtBound = 8.572

// NormalAt returns a standard normal variate stably attached to a
// coordinate tuple; |NormalAt| <= NormalAtBound.
func NormalAt(parts ...uint64) float64 {
	h := Hash64(parts...)
	u1 := float64(h>>11) / (1 << 53)
	u2 := float64(Mix64(h)>>11) / (1 << 53)
	if u1 <= 0 {
		u1 = 0x1p-53
	}
	return boxMuller(u1, u2)
}

// GumbelAt returns a standard Gumbel variate stably attached to a
// coordinate tuple.
func GumbelAt(parts ...uint64) float64 {
	u := UniformAt(parts...)
	if u <= 0 {
		u = 0x1p-53
	}
	return -math.Log(-math.Log(u))
}
