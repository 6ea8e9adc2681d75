package ldp

import (
	"math"

	"github.com/hdr4me/hdr4me/internal/mathx"
)

// Staircase is the Staircase mechanism of Geng et al. [10]: additive,
// data-independent noise whose density is a geometric mixture of uniform
// steps — the utility-optimal member of the unbounded family the paper
// groups with Laplace and SCDF [9]. With sensitivity Δ = 2 (domain [−1,1])
// and the variance-optimal step fraction γ* = 1/(1+e^{ε/2}), the noise
// density is
//
//	f(x) = a(γ)·e^{−kε}  for |x| ∈ [kΔ, (k+γ)Δ)
//	f(x) = a(γ)·e^{−(k+1)ε} for |x| ∈ [(k+γ)Δ, (k+1)Δ)
//
// with a(γ) = (1−e^{−ε}) / (2Δ(γ + e^{−ε}(1−γ))). Like Laplace it is
// unbiased and its moments are independent of t (Bound(M) = 0).
type Staircase struct{}

// staircaseDelta is the sensitivity of one attribute on [−1, 1].
const staircaseDelta = 2.0

// Name implements Mechanism.
func (Staircase) Name() string { return "Staircase" }

// Bounded implements Mechanism; the geometric tail is unbounded.
func (Staircase) Bounded() bool { return false }

// Gamma returns the variance-optimal step fraction γ* = 1/(1+e^{ε/2}).
func (Staircase) Gamma(eps float64) float64 { return 1 / (1 + math.Exp(eps/2)) }

// SupportBound implements Mechanism.
func (Staircase) SupportBound(eps float64) float64 { return math.Inf(1) }

// Perturb implements Mechanism using the exact sampler of Geng et al.:
// sign S, geometric step index G with ratio e^{−ε}, an intra-step Bernoulli
// choosing the high or low half of the step, and a uniform offset.
func (sc Staircase) Perturb(rng *mathx.RNG, t, eps float64) float64 {
	return sc.at(eps).Perturb(rng, t)
}

// Fix binds Staircase to budget eps (see Fix): γ*, e^{−ε} and the step
// split are computed once.
func (sc Staircase) Fix(eps float64) Fixed { return sc.at(eps) }

func (sc Staircase) at(eps float64) staircaseAt { return newStaircaseAt(eps, sc.Gamma(eps)) }

// Noise draws one sample of the staircase noise distribution.
func (sc Staircase) Noise(rng *mathx.RNG, eps float64) float64 {
	return sc.at(eps).noise(rng)
}

// NoisePDF returns the staircase noise density at x.
func (sc Staircase) NoisePDF(eps, x float64) float64 {
	return staircasePDF(eps, sc.Gamma(eps), x)
}

// Bias implements Mechanism; the noise is symmetric about 0.
func (Staircase) Bias(t, eps float64) float64 { return 0 }

// Var implements Mechanism via the exact geometric series for E[X²].
func (sc Staircase) Var(t, eps float64) float64 {
	return staircaseMoment(eps, sc.Gamma(eps), 2)
}

// ThirdAbsMoment implements Mechanism via the series for E|X|³.
func (sc Staircase) ThirdAbsMoment(t, eps float64) float64 {
	return staircaseMoment(eps, sc.Gamma(eps), 3)
}

// staircaseAt is the γ-parametrized staircase noise at one budget (γ = 1/2
// is the SCDF optimal data-independent noise of Soria-Comas &
// Domingo-Ferrer [9]): q = e^{−ε} and the inner-half probability
// γ/(γ + (1−γ)q) of a step.
type staircaseAt struct{ eps, gamma, q, pInner float64 }

func newStaircaseAt(eps, gamma float64) staircaseAt {
	q := math.Exp(-eps)
	return staircaseAt{eps: eps, gamma: gamma, q: q, pInner: gamma / (gamma + (1-gamma)*q)}
}

// Perturb implements Fixed: t plus one noise draw.
func (f staircaseAt) Perturb(rng *mathx.RNG, t float64) float64 {
	validate(t, f.eps)
	return t + f.noise(rng)
}

// noise samples the staircase noise.
func (f staircaseAt) noise(rng *mathx.RNG) float64 {
	gamma := f.gamma
	sign := 1.0
	if rng.Bernoulli(0.5) {
		sign = -1
	}
	g := float64(rng.Geometric(f.q))
	u := rng.Float64()
	// Within one step, mass splits γ : (1−γ)e^{−ε} between the inner
	// (higher) and outer (lower) halves.
	var x float64
	if rng.Bernoulli(f.pInner) {
		x = (g + gamma*u) * staircaseDelta
	} else {
		x = (g + gamma + (1-gamma)*u) * staircaseDelta
	}
	return sign * x
}

// staircasePDF evaluates the γ-parametrized staircase noise density.
func staircasePDF(eps, gamma, x float64) float64 {
	q := math.Exp(-eps)
	a := (1 - q) / (2 * staircaseDelta * (gamma + q*(1-gamma)))
	ax := math.Abs(x) / staircaseDelta
	k := math.Floor(ax)
	frac := ax - k
	f := a * math.Pow(q, k)
	if frac >= gamma {
		f *= q
	}
	return f
}

// staircaseMoment computes E|X|^p for the γ-parametrized staircase noise by
// summing the geometric step series until the running total stops changing.
func staircaseMoment(eps, gamma float64, p float64) float64 {
	q := math.Exp(-eps)
	a := (1 - q) / (2 * staircaseDelta * (gamma + q*(1-gamma)))
	// E|X|^p = 2a Σ_k q^k [ I(kΔ,(k+γ)Δ) + q·I((k+γ)Δ,(k+1)Δ) ],
	// I(u,v) = (v^{p+1} − u^{p+1})/(p+1).
	intPow := func(u, v float64) float64 {
		return (math.Pow(v, p+1) - math.Pow(u, p+1)) / (p + 1)
	}
	var sum mathx.KahanSum
	qk := 1.0
	for k := 0; k < 100000; k++ {
		lo := float64(k) * staircaseDelta
		mid := (float64(k) + gamma) * staircaseDelta
		hi := float64(k+1) * staircaseDelta
		term := qk * (intPow(lo, mid) + q*intPow(mid, hi))
		sum.Add(term)
		if term < 1e-18*(1+sum.Value()) {
			break
		}
		qk *= q
	}
	return 2 * a * sum.Value()
}
