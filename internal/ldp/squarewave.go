package ldp

import (
	"math"

	"github.com/hdr4me/hdr4me/internal/mathx"
)

// SquareWave is the Square Wave mechanism of Li et al. [12] (paper Eq. 5).
// Its native form perturbs s ∈ [0, 1] into x ∈ [−b, 1+b]: a band of
// half-width b centered on s carries density e^ε·q and the rest carries q,
// with q = 1/(2be^ε + 1) and b = (εe^ε − e^ε + 1)/(2e^ε(e^ε − 1 − ε)).
//
// This library works on the domain [−1, 1], so Perturb maps t ↦ s=(t+1)/2,
// perturbs, and releases y = 2x − 1 ∈ [−1−2b, 1+2b]. All moments below are
// expressed in the released y frame: Bias(t) = 2·δ_s(s), Var(t) = 4·Var_s(s).
// SW is *biased* (paper Eq. 17): the naive aggregation keeps that bias, which
// is exactly what the framework's δⱼ models in §IV-C.
type SquareWave struct{}

// Name implements Mechanism.
func (SquareWave) Name() string { return "SquareWave" }

// Bounded implements Mechanism.
func (SquareWave) Bounded() bool { return true }

// B returns the band half-width b(ε). A series expansion handles small ε
// where the closed form suffers catastrophic cancellation; b → 1/2 as ε → 0
// and b → 0 as ε → ∞.
func (SquareWave) B(eps float64) float64 {
	if eps < 1e-3 {
		// num = εe^ε − (e^ε−1)   = Σ_{k≥2} ε^k (k−1)/k!
		// den = 2e^ε (e^ε−1−ε)   ; e^ε−1−ε = Σ_{k≥2} ε^k/k!
		num := eps * eps / 2 * (1 + 2*eps/3 + eps*eps/4 + eps*eps*eps/15)
		inner := eps * eps / 2 * (1 + eps/3 + eps*eps/12 + eps*eps*eps/60)
		return num / (2 * math.Exp(eps) * inner)
	}
	e := math.Exp(eps)
	return (eps*e - math.Expm1(eps)) / (2 * e * (math.Expm1(eps) - eps))
}

// SupportBound implements Mechanism: released values lie in [−1−2b, 1+2b].
func (s SquareWave) SupportBound(eps float64) float64 { return 1 + 2*s.B(eps) }

// Perturb implements Mechanism.
func (sw SquareWave) Perturb(rng *mathx.RNG, t, eps float64) float64 {
	return sw.at(eps).Perturb(rng, t)
}

// Fix binds SW to budget eps (see Fix): b(ε) and the band probability
// are computed once.
func (sw SquareWave) Fix(eps float64) Fixed { return sw.at(eps) }

// squareWaveAt is SW at one budget: ε, the band half-width b and the
// band probability 2be^ε/(2be^ε + 1).
type squareWaveAt struct{ eps, b, pBand float64 }

func (sw SquareWave) at(eps float64) squareWaveAt {
	b := sw.B(eps)
	e := math.Exp(eps)
	z := 2*b*e + 1
	return squareWaveAt{eps: eps, b: b, pBand: 2 * b * e / z}
}

// Perturb implements Fixed: SW in the released [−1, 1] frame.
func (f squareWaveAt) Perturb(rng *mathx.RNG, t float64) float64 {
	validate(t, f.eps)
	x := f.perturb01(rng, (t+1)/2)
	return 2*x - 1
}

// perturb01 runs the native SW perturbation on s ∈ [0, 1].
func (f squareWaveAt) perturb01(rng *mathx.RNG, s float64) float64 {
	b := f.b
	if rng.Float64() < f.pBand {
		return s + rng.Uniform(-b, b)
	}
	// Low region: [−b, s−b) length s, then (s+b, 1+b] length 1−s; total 1.
	w := rng.Float64()
	if w < s {
		return -b + w
	}
	return s + b + (w - s)
}

// bias01 returns δ_s(s) = E[x] − s in the native [0,1] frame (paper Eq. 17).
func (sw SquareWave) bias01(s, eps float64) float64 {
	b := sw.B(eps)
	e := math.Exp(eps)
	z := 2*b*e + 1
	return 2*b*(e-1)*s/z + (1+2*b)/(2*z) - s
}

// var01 returns Var[x | s] in the native frame (paper Eq. 18).
func (sw SquareWave) var01(s, eps float64) float64 {
	b := sw.B(eps)
	e := math.Exp(eps)
	z := 2*b*e + 1
	d := sw.bias01(s, eps)
	return b*b/3 + (2*b+1)*(b+1-3*s*s)/(3*z) - d*d - 2*d*s
}

// Bias implements Mechanism in the released frame: 2·δ_s((t+1)/2).
func (sw SquareWave) Bias(t, eps float64) float64 {
	return 2 * sw.bias01((t+1)/2, eps)
}

// Var implements Mechanism in the released frame: 4·Var_s((t+1)/2).
func (sw SquareWave) Var(t, eps float64) float64 {
	return 4 * sw.var01((t+1)/2, eps)
}

// PDF returns the density of the released value y given input t.
func (sw SquareWave) PDF(t, eps, y float64) float64 {
	b := sw.B(eps)
	x := (y + 1) / 2
	if x < -b || x > 1+b {
		return 0
	}
	s := (t + 1) / 2
	e := math.Exp(eps)
	q := 1 / (2*b*e + 1)
	// Released frame density is half the native density (dy = 2 dx).
	if math.Abs(x-s) < b {
		return e * q / 2
	}
	return q / 2
}

// PerturbNative runs SW in its native frame of Li et al.: input s ∈ [0, 1],
// output in [−b, 1+b]. The §IV-C case study and the frequency-estimation
// pipeline (entries in [0, 1]) use this form directly.
func (sw SquareWave) PerturbNative(rng *mathx.RNG, s, eps float64) float64 {
	if math.IsNaN(s) || s < 0 || s > 1 {
		panic("ldp: native square-wave input outside [0,1]")
	}
	if !(eps > 0) || math.IsInf(eps, 0) {
		panic("ldp: privacy budget must be finite and positive")
	}
	return sw.at(eps).perturb01(rng, s)
}

// NativeBias returns δ_s(s) = E[x] − s in the native [0,1] frame (Eq. 17).
func (sw SquareWave) NativeBias(s, eps float64) float64 { return sw.bias01(s, eps) }

// NativeVar returns Var[x | s] in the native frame (Eq. 18).
func (sw SquareWave) NativeVar(s, eps float64) float64 { return sw.var01(s, eps) }

// ThirdAbsMoment implements Mechanism by piecewise quadrature of
// |y − t − δ|³ against the released density.
func (sw SquareWave) ThirdAbsMoment(t, eps float64) float64 {
	b := sw.B(eps)
	s := (t + 1) / 2
	delta := sw.Bias(t, eps)
	lo, hi := -1-2*b, 1+2*b
	// Breaks: band edges (in released frame) and the cusp of |·|³.
	bandLo, bandHi := 2*(s-b)-1, 2*(s+b)-1
	f := func(y float64) float64 {
		d := math.Abs(y - t - delta)
		return d * d * d * sw.PDF(t, eps, y)
	}
	return mathx.PiecewiseIntegrate(f, lo, hi, []float64{bandLo, bandHi, t + delta}, 8)
}
