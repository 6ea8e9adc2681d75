package dataset

import (
	"fmt"

	"github.com/hdr4me/hdr4me/internal/mathx"
)

// Uniform is the paper's Uniform dataset: every attribute is drawn
// independently and uniformly from [Lo, Hi] ⊆ [−1, 1].
type Uniform struct {
	N, D   int
	Lo, Hi float64
	Seed   uint64
}

// NewUniform returns a Uniform dataset over the full [−1,1] domain.
func NewUniform(n, d int, seed uint64) *Uniform {
	return &Uniform{N: n, D: d, Lo: -1, Hi: 1, Seed: seed}
}

// Name implements Dataset.
func (u *Uniform) Name() string { return fmt.Sprintf("Uniform(n=%d,d=%d)", u.N, u.D) }

// NumUsers implements Dataset.
func (u *Uniform) NumUsers() int { return u.N }

// Dim implements Dataset.
func (u *Uniform) Dim() int { return u.D }

// Row implements Dataset.
func (u *Uniform) Row(i int, dst []float64) {
	r := mathx.NewRNG(mathx.ChildSeed(u.Seed, uint64(i)))
	for j := 0; j < u.D; j++ {
		dst[j] = r.Uniform(u.Lo, u.Hi)
	}
}

// Gaussian is the paper's Gaussian dataset: all attributes have standard
// deviation 1/16; a SparseFrac fraction of the dimensions (the first ones)
// have expectation Mu (paper: 0.9), the rest have expectation 0. Values are
// clamped into [−1, 1].
type Gaussian struct {
	N, D       int
	Mu         float64
	Sigma      float64
	SparseFrac float64
	Seed       uint64
}

// NewGaussian returns the paper's configuration: σ=1/16, 10% of dimensions
// at μ=0.9, the rest at μ=0.
func NewGaussian(n, d int, seed uint64) *Gaussian {
	return &Gaussian{N: n, D: d, Mu: 0.9, Sigma: 1.0 / 16, SparseFrac: 0.10, Seed: seed}
}

// Name implements Dataset.
func (g *Gaussian) Name() string { return fmt.Sprintf("Gaussian(n=%d,d=%d)", g.N, g.D) }

// NumUsers implements Dataset.
func (g *Gaussian) NumUsers() int { return g.N }

// Dim implements Dataset.
func (g *Gaussian) Dim() int { return g.D }

// Row implements Dataset.
func (g *Gaussian) Row(i int, dst []float64) {
	r := mathx.NewRNG(mathx.ChildSeed(g.Seed, uint64(i)))
	hot := int(g.SparseFrac * float64(g.D))
	for j := 0; j < g.D; j++ {
		mu := 0.0
		if j < hot {
			mu = g.Mu
		}
		dst[j] = mathx.Clamp(r.Normal(mu, g.Sigma), -1, 1)
	}
}

// Poisson is the paper's Poisson dataset: dimension j follows a Poisson
// distribution with an expectation λⱼ drawn uniformly from {1,...,99} (fixed
// per dataset seed). Counts are normalized into [−1, 1] by the affine map
// k ↦ k/λⱼ − 1 and clamped, so the per-dimension mean sits near 0 with a
// dimension-specific skew — preserving the heterogeneity the paper relies on.
type Poisson struct {
	N, D    int
	Seed    uint64
	lambdas []float64
}

// NewPoisson returns a Poisson dataset with per-dimension rates λⱼ ~ U{1..99}.
func NewPoisson(n, d int, seed uint64) *Poisson {
	p := &Poisson{N: n, D: d, Seed: seed}
	r := mathx.NewRNG(seed ^ 0xfeedface)
	p.lambdas = make([]float64, d)
	for j := range p.lambdas {
		p.lambdas[j] = float64(1 + r.IntN(99))
	}
	return p
}

// Name implements Dataset.
func (p *Poisson) Name() string { return fmt.Sprintf("Poisson(n=%d,d=%d)", p.N, p.D) }

// NumUsers implements Dataset.
func (p *Poisson) NumUsers() int { return p.N }

// Dim implements Dataset.
func (p *Poisson) Dim() int { return p.D }

// Lambda returns the rate of dimension j (exported for tests and examples).
func (p *Poisson) Lambda(j int) float64 { return p.lambdas[j] }

// Row implements Dataset.
func (p *Poisson) Row(i int, dst []float64) {
	r := mathx.NewRNG(mathx.ChildSeed(p.Seed, uint64(i)))
	for j := 0; j < p.D; j++ {
		k := float64(r.Poisson(p.lambdas[j]))
		dst[j] = mathx.Clamp(k/p.lambdas[j]-1, -1, 1)
	}
}

// Discrete holds attributes drawn i.i.d. from a finite value set with given
// probabilities — the §IV-C case-study workload ({0.1,...,1.0}, p=10% each).
type Discrete struct {
	N, D   int
	Values []float64
	Probs  []float64 // must sum to 1
	Seed   uint64
	cdf    []float64
}

// NewCaseStudyDiscrete returns the §IV-C workload: v=10 values 0.1..1.0,
// each with probability 10%.
func NewCaseStudyDiscrete(n, d int, seed uint64) *Discrete {
	vals := make([]float64, 10)
	probs := make([]float64, 10)
	for i := range vals {
		vals[i] = float64(i+1) / 10
		probs[i] = 0.1
	}
	return NewDiscrete(n, d, vals, probs, seed)
}

// NewDiscrete builds a Discrete dataset; probs must sum to 1 (±1e-9).
func NewDiscrete(n, d int, values, probs []float64, seed uint64) *Discrete {
	if len(values) != len(probs) || len(values) == 0 {
		panic("dataset: values/probs mismatch")
	}
	var sum float64
	cdf := make([]float64, len(probs))
	for i, p := range probs {
		sum += p
		cdf[i] = sum
	}
	if sum < 1-1e-9 || sum > 1+1e-9 {
		panic(fmt.Sprintf("dataset: probs sum to %v, want 1", sum))
	}
	cdf[len(cdf)-1] = 1 // guard against rounding
	return &Discrete{N: n, D: d, Values: values, Probs: probs, Seed: seed, cdf: cdf}
}

// Name implements Dataset.
func (ds *Discrete) Name() string {
	return fmt.Sprintf("Discrete(n=%d,d=%d,v=%d)", ds.N, ds.D, len(ds.Values))
}

// NumUsers implements Dataset.
func (ds *Discrete) NumUsers() int { return ds.N }

// Dim implements Dataset.
func (ds *Discrete) Dim() int { return ds.D }

// Row implements Dataset.
func (ds *Discrete) Row(i int, dst []float64) {
	r := mathx.NewRNG(mathx.ChildSeed(ds.Seed, uint64(i)))
	for j := 0; j < ds.D; j++ {
		u := r.Float64()
		k := 0
		for u > ds.cdf[k] {
			k++
		}
		dst[j] = ds.Values[k]
	}
}
