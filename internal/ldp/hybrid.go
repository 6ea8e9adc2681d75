package ldp

import (
	"math"

	"github.com/hdr4me/hdr4me/internal/mathx"
)

// hybridEpsStar is the budget threshold of Wang et al. [11]: below it the
// Hybrid mechanism degenerates to pure Duchi.
const hybridEpsStar = 0.61

// Hybrid is the Hybrid Mechanism of Wang et al. [11]: with probability
// α = 1 − e^{−ε/2} (for ε > 0.61; α = 0 otherwise) it applies the Piecewise
// mechanism and with probability 1−α the Duchi mechanism, both at full ε.
// Each branch satisfies ε-LDP, so the mixture does too. Both branches are
// unbiased, hence so is the mixture.
type Hybrid struct{}

// Name implements Mechanism.
func (Hybrid) Name() string { return "Hybrid" }

// Bounded implements Mechanism.
func (Hybrid) Bounded() bool { return true }

// Alpha returns the PM mixing probability.
func (Hybrid) Alpha(eps float64) float64 {
	if eps <= hybridEpsStar {
		return 0
	}
	return -math.Expm1(-eps / 2)
}

// SupportBound implements Mechanism. PM's bound (e^{ε/2}+1)/(e^{ε/2}−1)
// dominates Duchi's (e^ε+1)/(e^ε−1) for every ε > 0.
func (h Hybrid) SupportBound(eps float64) float64 {
	if h.Alpha(eps) == 0 {
		return Duchi{}.SupportBound(eps)
	}
	return Piecewise{}.SupportBound(eps)
}

// Perturb implements Mechanism.
func (h Hybrid) Perturb(rng *mathx.RNG, t, eps float64) float64 {
	return h.at(eps).Perturb(rng, t)
}

// Fix binds Hybrid to budget eps (see Fix): α and both branches are
// bound once.
func (h Hybrid) Fix(eps float64) Fixed { return h.at(eps) }

// hybridAt is Hybrid at one budget: PM with probability alpha, else Duchi.
type hybridAt struct {
	eps, alpha float64
	pm         piecewiseAt
	duchi      duchiAt
}

func (h Hybrid) at(eps float64) hybridAt {
	return hybridAt{eps: eps, alpha: h.Alpha(eps), pm: Piecewise{}.at(eps), duchi: Duchi{}.at(eps)}
}

// Perturb implements Fixed.
func (f hybridAt) Perturb(rng *mathx.RNG, t float64) float64 {
	validate(t, f.eps)
	if rng.Float64() < f.alpha {
		return f.pm.Perturb(rng, t)
	}
	return f.duchi.Perturb(rng, t)
}

// Bias implements Mechanism; both branches are unbiased.
func (Hybrid) Bias(t, eps float64) float64 { return 0 }

// Var implements Mechanism. Both branches share mean t, so the mixture
// variance is the α-weighted average of branch variances.
func (h Hybrid) Var(t, eps float64) float64 {
	a := h.Alpha(eps)
	return a*Piecewise{}.Var(t, eps) + (1-a)*Duchi{}.Var(t, eps)
}

// ThirdAbsMoment implements Mechanism: the mixture of the branch moments
// (both centered at t since δ = 0 in each branch).
func (h Hybrid) ThirdAbsMoment(t, eps float64) float64 {
	a := h.Alpha(eps)
	return a*Piecewise{}.ThirdAbsMoment(t, eps) + (1-a)*Duchi{}.ThirdAbsMoment(t, eps)
}
