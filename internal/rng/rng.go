// Package rng provides a small, fast, deterministic pseudo-random number
// generator (xoshiro256**) with SplitMix64 seeding and stream splitting.
// Simulation replications each get an independent stream derived from a
// master seed, so every experiment in the repository is reproducible
// bit-for-bit without relying on global state.
package rng

import (
	"math"
	"math/bits"
)

// Rand is a xoshiro256** generator. The zero value is not valid; use New.
type Rand struct {
	// The four state words are separate fields rather than an array: the
	// compiler prices field accesses below indexed ones, which keeps
	// Uint64 — and Float64 and Intn around it — under the inlining budget.
	s0, s1, s2, s3 uint64
}

// New returns a generator seeded from seed via SplitMix64.
func New(seed uint64) *Rand {
	var s [4]uint64
	sm := seed
	for i := range s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		s[i] = z ^ (z >> 31)
	}
	// Avoid the all-zero state (cannot happen with SplitMix64, but cheap
	// to guarantee).
	if s[0]|s[1]|s[2]|s[3] == 0 {
		s[0] = 1
	}
	return &Rand{s[0], s[1], s[2], s[3]}
}

// Split derives an independent stream for replication i: it reseeds from a
// hash of the generator's state and the index, so streams do not overlap
// in practice.
func (r *Rand) Split(i uint64) *Rand {
	return New(r.s0*0x9e3779b97f4a7c15 ^ r.s1 ^ (i+1)*0xda942042e4dd58b5)
}

// Uint64 returns the next 64 pseudo-random bits. It is the reference
// xoshiro256** step with the state loaded into locals and stored back in
// one assignment, which keeps it cheap enough for the compiler to inline
// into every draw. scripts/ci.sh checks that it stays inlinable.
func (r *Rand) Uint64() uint64 {
	s0, s1, s2, s3 := r.s0, r.s1, r.s2, r.s3
	s2 ^= s0
	s3 ^= s1
	r.s0, r.s1, r.s2, r.s3 = s0^s3, s1^s2, s2^s1<<17, bits.RotateLeft64(s3, 45)
	return bits.RotateLeft64(s1*5, 7) * 9
}

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Float64Open returns a uniform value in (0, 1), never exactly zero —
// safe as the argument of a logarithm.
func (r *Rand) Float64Open() float64 {
	for {
		// Float64 of the same draw, tested before the conversion.
		if x := r.Uint64() >> 11; x != 0 {
			return float64(x) / (1 << 53)
		}
	}
}

// Intn returns a uniform integer in [0, n). n must be positive.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire-style rejection-free-ish bounded generation.
	return int(r.Uint64() % uint64(n))
}

// ExpFloat64 returns an exponential variate with rate lambda (mean
// 1/lambda).
func (r *Rand) ExpFloat64(lambda float64) float64 {
	return -math.Log(r.Float64Open()) / lambda
}

// NormFloat64 returns a standard normal variate by the Marsaglia–Tsang
// ziggurat ("The Ziggurat Method for Generating Random Variables", JSS
// 2000) with 128 layers. One Uint64 feeds the fast path: its low 32 bits
// are the signed abscissa and bits 32–38 the layer, and a draw that lands
// inside the layer's rectangle is the answer — about 99% of them.
// normSlow handles the rest.
func (r *Rand) NormFloat64() float64 {
	u := r.Uint64()
	j, i := int32(u), u>>32&(zigLayers-1)
	if absInt32(j) < kn[i] {
		return float64(j) * wn[i]
	}
	return r.normSlow(j, i)
}

// normSlow finishes a draw whose abscissa j fell outside layer i's
// rectangle: the base layer's overhang goes to the tail beyond zigR
// (Marsaglia's exponential rejection), any other layer's to its wedge,
// accepted under the density. A rejected wedge draw starts over.
func (r *Rand) normSlow(j int32, i uint64) float64 {
	if i == 0 {
		for {
			x := -math.Log(r.Float64Open()) / zigR
			y := -math.Log(r.Float64Open())
			if y+y >= x*x {
				if j < 0 {
					return -zigR - x
				}
				return zigR + x
			}
		}
	}
	x := float64(j) * wn[i]
	if fn[i]+r.Float64()*(fn[i-1]-fn[i]) < math.Exp(-0.5*x*x) {
		return x
	}
	return r.NormFloat64()
}

func absInt32(j int32) uint32 {
	if j < 0 {
		return uint32(-j)
	}
	return uint32(j)
}

// The ziggurat's constants: zigR is the right edge of the widest layer
// above the base and zigV the common area of every layer, for the
// unnormalized density exp(−x²/2).
const (
	zigLayers = 128
	zigR      = 3.442619855899
	zigV      = 9.91256303526217e-3
)

// The ziggurat's tables, built by init from zigR and zigV alone as in
// Marsaglia and Tsang's zigset, so the stream depends on no Go release.
// Layer i > 0 spans the densities [fn[i], fn[i-1]] over abscissas
// [0, wn[i]·2³¹); kn[i] is the part of that width, in the same units,
// that lies wholly under the density. Layer 0 is the base strip with its
// tail, and fn[0] = 1 is the mode.
var (
	kn [zigLayers]uint32
	wn [zigLayers]float64
	fn [zigLayers]float64
)

func init() {
	const m1 = 1 << 31
	dn, tn := zigR, zigR
	q := zigV / math.Exp(-0.5*dn*dn)
	kn[0] = uint32(dn / q * m1)
	kn[1] = 0
	wn[0] = q / m1
	wn[zigLayers-1] = dn / m1
	fn[0] = 1
	fn[zigLayers-1] = math.Exp(-0.5 * dn * dn)
	for i := zigLayers - 2; i >= 1; i-- {
		dn = math.Sqrt(-2 * math.Log(zigV/dn+math.Exp(-0.5*dn*dn)))
		kn[i+1] = uint32(dn / tn * m1)
		tn = dn
		fn[i] = math.Exp(-0.5 * dn * dn)
		wn[i] = dn / m1
	}
}
