package ldp

import (
	"math"

	"github.com/hdr4me/hdr4me/internal/mathx"
)

// Duchi is the bounded binary-output mechanism of Duchi et al. [27] for one
// dimension: the release is ±B with B = (e^ε+1)/(e^ε−1) and
// P[t* = +B] = 1/2 + t(e^ε−1)/(2(e^ε+1)). It is unbiased with
// Var[t*|t] = B² − t².
type Duchi struct{}

// Name implements Mechanism.
func (Duchi) Name() string { return "Duchi" }

// Bounded implements Mechanism.
func (Duchi) Bounded() bool { return true }

// SupportBound implements Mechanism: B = (e^ε+1)/(e^ε−1).
func (Duchi) SupportBound(eps float64) float64 {
	em1 := math.Expm1(eps)
	return (em1 + 2) / em1
}

// Perturb implements Mechanism.
func (d Duchi) Perturb(rng *mathx.RNG, t, eps float64) float64 {
	return d.at(eps).Perturb(rng, t)
}

// Fix binds Duchi to budget eps (see Fix): B and the e^ε terms of
// P[t* = +B] are computed once.
func (d Duchi) Fix(eps float64) Fixed { return d.at(eps) }

// duchiAt is Duchi at one budget: P[t* = +B | t] = 1/2 + t·em1/den with
// em1 = e^ε − 1 and den = 2(e^ε + 1).
type duchiAt struct{ eps, b, em1, den float64 }

func (d Duchi) at(eps float64) duchiAt {
	e := math.Exp(eps)
	return duchiAt{eps: eps, b: d.SupportBound(eps), em1: e - 1, den: 2 * (e + 1)}
}

// pPlus returns P[t* = +B | t].
func (f duchiAt) pPlus(t float64) float64 { return 0.5 + t*f.em1/f.den }

// Perturb implements Fixed.
func (f duchiAt) Perturb(rng *mathx.RNG, t float64) float64 {
	validate(t, f.eps)
	if rng.Float64() < f.pPlus(t) {
		return f.b
	}
	return -f.b
}

// Bias implements Mechanism; Duchi is unbiased.
func (Duchi) Bias(t, eps float64) float64 { return 0 }

// Var implements Mechanism: E[t*²] = B², so Var = B² − t².
func (d Duchi) Var(t, eps float64) float64 {
	b := d.SupportBound(eps)
	return b*b - t*t
}

// ThirdAbsMoment implements Mechanism exactly on the two-point support:
// E|t*−t|³ = p(B−t)³ + (1−p)(B+t)³.
func (d Duchi) ThirdAbsMoment(t, eps float64) float64 {
	f := d.at(eps)
	b, p := f.b, f.pPlus(t)
	up, dn := b-t, b+t
	return p*up*up*up + (1-p)*dn*dn*dn
}
