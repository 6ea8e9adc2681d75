package mathx

import (
	"math"
	"math/rand/v2"
)

// RNG is a deterministic random source with the samplers needed by the LDP
// mechanisms and the synthetic dataset generators. It is splittable: Child
// derives an independent deterministic substream, which lets the experiment
// harness run trials in parallel while staying exactly reproducible.
//
// RNG is not safe for concurrent use; give each goroutine its own Child.
type RNG struct {
	pcg  *rand.PCG
	src  *rand.Rand
	seed uint64
	// perm is SampleIndices' scratch: the identity permutation of
	// [0, len(perm)) between calls.
	perm []int
}

// NewRNG returns a deterministic RNG seeded with seed.
func NewRNG(seed uint64) *RNG {
	pcg := new(rand.PCG)
	r := &RNG{pcg: pcg, src: rand.New(pcg)}
	r.Reseed(seed)
	return r
}

// Reseed restarts r in place on seed: its stream from here on equals
// NewRNG(seed)'s, without allocating. Pooled RNGs reseed per use.
func (r *RNG) Reseed(seed uint64) {
	s := splitmix64(seed)
	r.pcg.Seed(s, splitmix64(s))
	r.seed = seed
}

// splitmix64 is the standard SplitMix64 finalizer, used both to whiten seeds
// and to derive child streams.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// ChildSeed returns the seed of the i-th substream of an RNG seeded with
// seed: NewRNG(seed).Child(i).Seed(), computed without building either.
func ChildSeed(seed, i uint64) uint64 {
	return splitmix64(seed^0xa5a5a5a5a5a5a5a5) + splitmix64(i)*0x9e3779b97f4a7c15
}

// Child derives the i-th independent substream of r's seed.
func (r *RNG) Child(i uint64) *RNG { return NewRNG(ChildSeed(r.seed, i)) }

// Seed returns the seed the RNG was constructed with.
func (r *RNG) Seed() uint64 { return r.seed }

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 { return r.src.Float64() }

// Uniform returns a uniform value in [a, b).
func (r *RNG) Uniform(a, b float64) float64 { return a + (b-a)*r.src.Float64() }

// IntN returns a uniform int in [0, n).
func (r *RNG) IntN(n int) int { return r.src.IntN(n) }

// Perm returns a uniform random permutation of [0, n).
func (r *RNG) Perm(n int) []int { return r.src.Perm(n) }

// Bernoulli returns true with probability p.
func (r *RNG) Bernoulli(p float64) bool { return r.src.Float64() < p }

// Normal returns a N(mu, sigma²) sample.
func (r *RNG) Normal(mu, sigma float64) float64 { return mu + sigma*r.src.NormFloat64() }

// Laplace returns a Laplace(0, scale) sample (density exp(−|x|/scale)/2scale).
func (r *RNG) Laplace(scale float64) float64 {
	u := r.src.Float64() - 0.5
	if u < 0 {
		return scale * math.Log1p(2*u) // log(1 − 2|u|), negative branch
	}
	return -scale * math.Log1p(-2*u)
}

// Exponential returns an Exp(rate) sample with mean 1/rate.
func (r *RNG) Exponential(rate float64) float64 {
	return r.src.ExpFloat64() / rate
}

// Geometric returns a sample G ∈ {0,1,2,...} with P[G=g] = (1−q)·q^g,
// i.e. the number of failures before the first success with success
// probability 1−q. Used by the staircase mechanism with q = e^{−ε}.
func (r *RNG) Geometric(q float64) int {
	if q <= 0 {
		return 0
	}
	u := r.src.Float64()
	// Invert the CDF: smallest g with 1 − q^{g+1} ≥ u.
	g := math.Floor(math.Log1p(-u) / math.Log(q))
	if g < 0 {
		return 0
	}
	return int(g)
}

// Poisson returns a Poisson(lambda) sample. Knuth's product method is used
// for small lambda and the PTRS transformed-rejection sampler (Hörmann 1993)
// for large lambda.
func (r *RNG) Poisson(lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda < 30 {
		l := math.Exp(-lambda)
		k := 0
		p := 1.0
		for {
			p *= r.src.Float64()
			if p <= l {
				return k
			}
			k++
		}
	}
	return r.poissonPTRS(lambda)
}

func (r *RNG) poissonPTRS(lambda float64) int {
	b := 0.931 + 2.53*math.Sqrt(lambda)
	a := -0.059 + 0.02483*b
	invAlpha := 1.1239 + 1.1328/(b-3.4)
	vr := 0.9277 - 3.6224/(b-2)
	logLam := math.Log(lambda)
	for {
		u := r.src.Float64() - 0.5
		v := r.src.Float64()
		us := 0.5 - math.Abs(u)
		k := math.Floor((2*a/us+b)*u + lambda + 0.43)
		if us >= 0.07 && v <= vr {
			return int(k)
		}
		if k < 0 || (us < 0.013 && v > us) {
			continue
		}
		lg, _ := math.Lgamma(k + 1)
		if math.Log(v*invAlpha/(a/(us*us)+b)) <= k*logLam-lambda-lg {
			return int(k)
		}
	}
}

// SampleIndices fills dst with a uniform random m-subset of [0, d) in
// increasing order (m is clamped to d). It allocates only when dst is too
// small, or on the first draw over a d larger than any before.
func (r *RNG) SampleIndices(d, m int, dst []int) []int { return sampleInto(r, d, m, dst) }

// SampleDims is SampleIndices in the report wire form: the same draws and
// the same subset, written as uint32 dimensions.
func (r *RNG) SampleDims(d, m int, dst []uint32) []uint32 { return sampleInto(r, d, m, dst) }

// sampleInto runs a partial Fisher–Yates shuffle over r.perm, which is the
// identity permutation between calls: step i swaps slot i with a uniform
// slot j ≥ i, so one draw touches at most 2m slots, and those are set back
// before returning. A draw costs O(m) (plus an O(m²) insertion sort),
// whatever d is.
func sampleInto[T int | uint32](r *RNG, d, m int, dst []T) []T {
	if m > d {
		m = d
	}
	if len(r.perm) < d {
		r.perm = make([]int, d)
		for i := range r.perm {
			r.perm[i] = i
		}
	}
	perm := r.perm
	if cap(dst) < m {
		dst = make([]T, m)
	}
	dst = dst[:m]
	for i := 0; i < m; i++ {
		j := i + r.src.IntN(d-i)
		perm[i], perm[j] = perm[j], perm[i]
		dst[i] = T(perm[i])
	}
	// Slot i < m never moves after step i, so every slot ≥ m a swap
	// touched holds a value that is now in dst: resetting the first m
	// slots and the slots named by dst restores the identity.
	for i := 0; i < m; i++ {
		perm[i] = i
		perm[dst[i]] = int(dst[i])
	}
	for i := 1; i < m; i++ {
		for j := i; j > 0 && dst[j] < dst[j-1]; j-- {
			dst[j], dst[j-1] = dst[j-1], dst[j]
		}
	}
	return dst
}
