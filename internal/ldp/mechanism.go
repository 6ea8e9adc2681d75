// Package ldp implements the local differential privacy perturbation
// mechanisms studied by the paper: the three it evaluates (Laplace [13],
// Piecewise [11], Square Wave [12]) and the related mechanisms it surveys
// (Duchi [27], Hybrid [11], Staircase [10]).
//
// Every mechanism perturbs a single numerical value t ∈ [−1, 1] under a
// per-dimension budget ε and additionally exposes the analytic moments the
// paper's framework consumes: the bias δ(t, ε) = E[t*] − t, the variance
// Var[t* | t], and the centered third absolute moment E|t* − t − δ|³ used by
// the Berry–Esseen bound (Theorem 2).
//
// The Bounded flag is the paper's Bound(M) classifier: bounded mechanisms
// perturb into a finite interval (so their moments depend on t, Lemma 1),
// unbounded mechanisms add data-independent noise (moments depend only
// on ε).
package ldp

import (
	"fmt"
	"math"

	"github.com/hdr4me/hdr4me/internal/mathx"
)

// Mechanism is a one-dimensional ε-LDP perturbation on the domain [−1, 1].
// Implementations are stateless and safe for concurrent use; all randomness
// flows through the caller-provided RNG.
type Mechanism interface {
	// Name identifies the mechanism in reports.
	Name() string

	// Bounded reports the paper's Bound(M) flag: true if the output domain
	// [−B, B] is finite, false for additive unbounded noise.
	Bounded() bool

	// Perturb maps t ∈ [−1, 1] to its ε-LDP randomized release.
	Perturb(rng *mathx.RNG, t, eps float64) float64

	// SupportBound returns B such that outputs lie in [−B, B] for bounded
	// mechanisms; +Inf for unbounded ones.
	SupportBound(eps float64) float64

	// Bias returns δ(t, ε) = E[t* | t] − t. Zero for unbiased mechanisms.
	Bias(t, eps float64) float64

	// Var returns Var[t* | t] under budget ε.
	Var(t, eps float64) float64

	// ThirdAbsMoment returns ρ(t, ε) = E[|t* − t − δ|³ | t], the Berry–Esseen
	// ingredient of Theorem 2.
	ThirdAbsMoment(t, eps float64) float64
}

// Fixed is a Mechanism bound to one budget ε: the form a collection
// protocol perturbs with, since its budgets are fixed when the protocol
// is. The registered mechanisms compute their ε-only constants once in
// Fix; per value only the draws and the t-dependent arithmetic remain.
// A Fixed is immutable and safe for concurrent use.
type Fixed interface {
	// Perturb maps t ∈ [−1, 1] to its randomized release. Its draws and
	// its bits equal the bound mechanism's Perturb(rng, t, ε).
	Perturb(rng *mathx.RNG, t float64) float64
}

// Fix binds m to budget eps. A budget outside the protocol contract
// panics on the first Perturb, exactly as m.Perturb would.
func Fix(m Mechanism, eps float64) Fixed {
	if f, ok := m.(interface{ Fix(eps float64) Fixed }); ok {
		return f.Fix(eps)
	}
	return perCall{m, eps}
}

// FixEach binds m to every budget in eps, building one Fixed per
// distinct budget: out[j] perturbs with eps[j].
func FixEach(m Mechanism, eps []float64) []Fixed {
	byEps := map[float64]Fixed{}
	out := make([]Fixed, len(eps))
	for j, e := range eps {
		f, ok := byEps[e]
		if !ok {
			f = Fix(m, e)
			byEps[e] = f
		}
		out[j] = f
	}
	return out
}

// perCall is the Fixed form of a mechanism without precomputed
// constants: each value goes through Perturb(rng, t, ε).
type perCall struct {
	m   Mechanism
	eps float64
}

func (f perCall) Perturb(rng *mathx.RNG, t float64) float64 { return f.m.Perturb(rng, t, f.eps) }

// validate panics on values outside the protocol contract; perturbing
// garbage silently would corrupt the privacy accounting.
func validate(t, eps float64) {
	if math.IsNaN(t) || t < -1 || t > 1 {
		panic(fmt.Sprintf("ldp: input value %v outside [-1,1]", t))
	}
	if !(eps > 0) || math.IsInf(eps, 0) {
		panic(fmt.Sprintf("ldp: privacy budget %v must be finite and positive", eps))
	}
}

// Registry returns all implemented mechanisms keyed by canonical name.
func Registry() map[string]Mechanism {
	return map[string]Mechanism{
		"laplace":    Laplace{},
		"piecewise":  Piecewise{},
		"squarewave": SquareWave{},
		"duchi":      Duchi{},
		"hybrid":     Hybrid{},
		"staircase":  Staircase{},
		"scdf":       SCDF{},
	}
}

// ByName resolves a mechanism by canonical name.
func ByName(name string) (Mechanism, error) {
	m, ok := Registry()[name]
	if !ok {
		return nil, fmt.Errorf("ldp: unknown mechanism %q", name)
	}
	return m, nil
}

// Evaluated returns the three mechanisms the paper's evaluation section uses,
// in the order of the figures: Laplace, Piecewise, Square Wave.
func Evaluated() []Mechanism {
	return []Mechanism{Laplace{}, Piecewise{}, SquareWave{}}
}
