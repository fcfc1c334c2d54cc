// Package rng provides the deterministic random number substrate of the
// simulator.
//
// Monte-Carlo experiments must be exactly reproducible from a single master
// seed, and independent parts of a simulation (job generation, failure
// injection, per-run replication) must draw from independent streams so
// that changing the number of draws in one component does not perturb the
// others. The generator is xoshiro256** seeded through splitmix64, the
// combination recommended by the xoshiro authors; both are implemented here
// so the module stays dependency-free and stable across Go releases
// (math/rand's internal algorithm is not guaranteed stable).
package rng

import "math"

// The common-random-numbers (CRN) seed schedule. Every simulation
// replicate derives its component streams from a single replicate seed,
// and every replicate seed is a pure function of the experiment's master
// seed and the replicate index:
//
//	replicate seed i   = ReplicateSeed(master, i)     (stream 100+i)
//	workload stream    = ReseedStream(seed_i, StreamWorkload)
//	failure stream     = ReseedStream(seed_i, StreamFailure)
//
// Two strategies evaluated at the same (master, i) therefore consume
// bit-identical workload and failure draws — the paired design of the
// paper's §5 comparisons — and extending an experiment from n to m > n
// replicates reuses runs 0..n-1 exactly, because the derivation never
// depends on the total replicate count.
const (
	// StreamWorkload seeds job-mix generation within a replicate.
	StreamWorkload = 1
	// StreamFailure seeds failure injection within a replicate.
	StreamFailure = 2
	// streamReplicateBase offsets replicate streams past the component
	// streams above, so no replicate seed collides with an internal
	// stream of any seed.
	streamReplicateBase = 100
)

// ReplicateSeed derives the independent seed of replicate i from the
// experiment's master seed — the CRN schedule's outer level. The
// derivation is stable: it is part of the package contract that
// recorded experiments replay bit-identically.
func ReplicateSeed(master uint64, i int) uint64 {
	var r RNG
	r.ReseedStream(master, uint64(streamReplicateBase+i))
	return r.Uint64()
}

// RNG is a deterministic pseudo-random number generator (xoshiro256**).
// It is not safe for concurrent use; derive one stream per goroutine with
// Split or NewStream.
type RNG struct {
	s        [4]uint64
	spare    float64 // cached second variate from the polar Normal method
	hasSpare bool
	// anti complements every uniform variate (antithetic sampling).
	anti bool
}

// splitmix64 advances x and returns the next splitmix64 output. It is used
// to expand seeds into full xoshiro state and to derive stream seeds.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator seeded from the given 64-bit seed. Distinct seeds
// give independent, well-mixed states even for small or sequential values.
func New(seed uint64) *RNG {
	r := &RNG{}
	r.Reseed(seed)
	return r
}

// Reseed re-initialises the generator in place to the exact state New(seed)
// would produce, including clearing the cached Normal spare. It lets
// long-lived simulation arenas re-derive their streams per replicate
// without allocating. The antithetic mode is a property of the consumer,
// not of the seed, and is preserved across Reseed.
func (r *RNG) Reseed(seed uint64) {
	x := seed
	for i := range r.s {
		r.s[i] = splitmix64(&x)
	}
	// xoshiro state must not be all zero; splitmix64 output of any seed
	// cannot produce four zero words, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	r.spare, r.hasSpare = 0, false
}

// NewStream returns a generator for logical sub-stream id of the given
// master seed. Streams with different ids are statistically independent.
func NewStream(seed, id uint64) *RNG {
	r := &RNG{}
	r.ReseedStream(seed, id)
	return r
}

// ReseedStream re-initialises the generator in place to the exact state
// NewStream(seed, id) would produce.
func (r *RNG) ReseedStream(seed, id uint64) {
	x := seed
	base := splitmix64(&x)
	y := base ^ (id * 0xd1342543de82ef95)
	r.Reseed(splitmix64(&y))
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
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

// Split derives a new independent generator from this one, advancing this
// generator's state.
func (r *RNG) Split() *RNG {
	x := r.Uint64()
	return New(splitmix64(&x))
}

// SetAntithetic switches antithetic sampling on or off: with it on, every
// continuous variate is drawn from the complemented uniform stream (u
// becomes 1-u), so a generator reseeded to the same state with the switch
// flipped produces the mirror-image sample path. Exponential and Weibull
// inter-arrivals are antithetically (negatively) correlated with their
// plain counterparts, Normal variates are reflected about the mean, and
// Uniform(a,b) maps to a+b-x. Integer draws (Uint64, Intn, Shuffle)
// are unaffected — antithetic pairs share every discrete choice and
// mirror only the continuous ones, which is what keeps pair averages
// unbiased while cancelling first-order noise.
func (r *RNG) SetAntithetic(on bool) { r.anti = on }

// Antithetic reports whether antithetic sampling is on.
func (r *RNG) Antithetic() bool { return r.anti }

// Float64 returns a uniform variate in [0, 1) with 53 bits of precision.
// In antithetic mode the variate is the complement 1-u of the plain draw,
// nudged back inside [0, 1) at the (probability 2^-53) boundary.
func (r *RNG) Float64() float64 {
	f := float64(r.Uint64()>>11) * 0x1p-53
	if r.anti {
		if f = 1 - f; f == 1 {
			f = 1 - 0x1p-53
		}
	}
	return f
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded generation with rejection.
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	a0, a1 := a&mask, a>>32
	b0, b1 := b&mask, b>>32
	t := a1*b0 + (a0*b0)>>32
	lo = a * b
	hi = a1*b1 + t>>32 + (t&mask+a0*b1)>>32
	return hi, lo
}

// Uniform returns a uniform variate in [a, b).
func (r *RNG) Uniform(a, b float64) float64 {
	return a + (b-a)*r.Float64()
}

// Exponential returns an exponentially distributed variate with the given
// mean (not rate). It panics if mean <= 0.
func (r *RNG) Exponential(mean float64) float64 {
	if mean <= 0 {
		panic("rng: Exponential with non-positive mean")
	}
	// 1-Float64() is in (0,1], so Log never sees zero.
	return -mean * math.Log(1-r.Float64())
}

// Normal returns a normally distributed variate with the given mean and
// standard deviation, using the Marsaglia polar method with a cached spare.
func (r *RNG) Normal(mean, std float64) float64 {
	if r.hasSpare {
		r.hasSpare = false
		return mean + std*r.spare
	}
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(s) / s)
		r.spare = v * f
		r.hasSpare = true
		return mean + std*u*f
	}
}

// Weibull returns a Weibull-distributed variate with the given shape k and
// scale lambda. Shape 1 reduces to Exponential(lambda). It panics on
// non-positive parameters.
func (r *RNG) Weibull(shape, scale float64) float64 {
	if shape <= 0 || scale <= 0 {
		panic("rng: Weibull with non-positive parameter")
	}
	return scale * math.Pow(-math.Log(1-r.Float64()), 1/shape)
}

// WeibullScaleForMean returns the scale parameter that gives a Weibull
// distribution of the given shape the requested mean.
func WeibullScaleForMean(shape, mean float64) float64 {
	if shape <= 0 || mean <= 0 {
		panic("rng: WeibullScaleForMean with non-positive parameter")
	}
	return mean / math.Gamma(1+1/shape)
}

// Shuffle pseudo-randomly permutes n elements using the provided swap
// function (Fisher–Yates).
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
