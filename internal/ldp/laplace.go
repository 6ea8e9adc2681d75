package ldp

import (
	"math"

	"github.com/hdr4me/hdr4me/internal/mathx"
)

// Laplace is the classic unbounded mechanism of Dwork et al. [13] on the
// domain [−1, 1]: t* = t + Lap(2/ε). The sensitivity of a value in [−1, 1]
// is 2, so scale λ = 2/ε yields ε-LDP. Estimation is unbiased and the noise
// moments are data-independent (Lemma 1, Bound(M)=0).
type Laplace struct{}

// Name implements Mechanism.
func (Laplace) Name() string { return "Laplace" }

// Bounded implements Mechanism; Laplace noise is unbounded.
func (Laplace) Bounded() bool { return false }

// Scale returns the noise scale λ = 2/ε.
func (Laplace) Scale(eps float64) float64 { return 2 / eps }

// Perturb implements Mechanism.
func (l Laplace) Perturb(rng *mathx.RNG, t, eps float64) float64 {
	return l.at(eps).Perturb(rng, t)
}

// Fix binds Laplace to budget eps (see Fix): the scale 2/ε is computed
// once.
func (l Laplace) Fix(eps float64) Fixed { return l.at(eps) }

// laplaceAt is Laplace at one budget: ε and the scale λ = 2/ε.
type laplaceAt struct{ eps, scale float64 }

func (l Laplace) at(eps float64) laplaceAt { return laplaceAt{eps: eps, scale: l.Scale(eps)} }

// Perturb implements Fixed.
func (f laplaceAt) Perturb(rng *mathx.RNG, t float64) float64 {
	validate(t, f.eps)
	return t + rng.Laplace(f.scale)
}

// SupportBound implements Mechanism; the output domain is all of R.
func (Laplace) SupportBound(eps float64) float64 { return math.Inf(1) }

// Bias implements Mechanism; Laplace noise has zero mean.
func (Laplace) Bias(t, eps float64) float64 { return 0 }

// Var implements Mechanism: Var[Lap(λ)] = 2λ² = 8/ε².
func (l Laplace) Var(t, eps float64) float64 {
	lam := l.Scale(eps)
	return 2 * lam * lam
}

// ThirdAbsMoment implements Mechanism: E|Lap(λ)|³ = 3!·λ³/... precisely
// E|X|³ = ∫|x|³ e^{−|x|/λ}/(2λ) dx = 3!·λ³ = 6λ³. The paper's Eq. 21
// evaluates the same integral as 3λ·E[x²]/2·... and lands on 3λ³·2 = 6λ³
// via E[x²]=2λ²: ρ = (3λ/2)·2λ² = 3λ³ — note the paper's final line keeps
// ρ = 3λ³ because it writes E(x²) for the one-sided integral. We implement
// the exact two-sided moment 6λ³ and verify it by quadrature in tests; the
// Berry–Esseen *rate* (1/√r) is unchanged either way.
func (l Laplace) ThirdAbsMoment(t, eps float64) float64 {
	lam := l.Scale(eps)
	return 6 * lam * lam * lam
}
