package ldp

import (
	"math"
	"testing"

	"github.com/hdr4me/hdr4me/internal/mathx"
)

// The registered mechanisms perturb through their fixed-ε forms, which
// hoist the ε-only constants out of the per-value path. The reference
// below is the per-call derivation they replaced — every constant
// re-derived from ε for every value — kept as the bitwise oracle.

func refSquareWave(rng *mathx.RNG, t, eps float64) float64 {
	validate(t, eps)
	s := (t + 1) / 2
	b := SquareWave{}.B(eps)
	e := math.Exp(eps)
	z := 2*b*e + 1
	var x float64
	if rng.Float64() < 2*b*e/z {
		x = s + rng.Uniform(-b, b)
	} else if w := rng.Float64(); w < s {
		x = -b + w
	} else {
		x = s + b + (w - s)
	}
	return 2*x - 1
}

func refLaplace(rng *mathx.RNG, t, eps float64) float64 {
	validate(t, eps)
	return t + rng.Laplace(Laplace{}.Scale(eps))
}

func refPiecewise(rng *mathx.RNG, t, eps float64) float64 {
	validate(t, eps)
	c := math.Exp(eps / 2)
	q := Piecewise{}.SupportBound(eps)
	l := (q+1)/2*t - (q-1)/2
	r := l + q - 1
	if rng.Float64() < c/(c+1) {
		return rng.Uniform(l, r)
	}
	w := rng.Float64() * (q + 1)
	if left := l + q; w < left {
		return -q + w
	} else {
		return r + (w - left)
	}
}

func refDuchi(rng *mathx.RNG, t, eps float64) float64 {
	validate(t, eps)
	b := Duchi{}.SupportBound(eps)
	e := math.Exp(eps)
	if rng.Float64() < 0.5+t*(e-1)/(2*(e+1)) {
		return b
	}
	return -b
}

func refHybrid(rng *mathx.RNG, t, eps float64) float64 {
	validate(t, eps)
	if rng.Float64() < (Hybrid{}).Alpha(eps) {
		return refPiecewise(rng, t, eps)
	}
	return refDuchi(rng, t, eps)
}

func refStaircaseNoise(rng *mathx.RNG, eps, gamma float64) float64 {
	q := math.Exp(-eps)
	sign := 1.0
	if rng.Bernoulli(0.5) {
		sign = -1
	}
	g := float64(rng.Geometric(q))
	u := rng.Float64()
	pInner := gamma / (gamma + (1-gamma)*q)
	var x float64
	if rng.Bernoulli(pInner) {
		x = (g + gamma*u) * staircaseDelta
	} else {
		x = (g + gamma + (1-gamma)*u) * staircaseDelta
	}
	return sign * x
}

func refStaircase(rng *mathx.RNG, t, eps float64) float64 {
	validate(t, eps)
	return t + refStaircaseNoise(rng, eps, Staircase{}.Gamma(eps))
}

func refSCDF(rng *mathx.RNG, t, eps float64) float64 {
	validate(t, eps)
	return t + refStaircaseNoise(rng, eps, 0.5)
}

var refPerturb = map[string]func(*mathx.RNG, float64, float64) float64{
	"squarewave": refSquareWave,
	"laplace":    refLaplace,
	"piecewise":  refPiecewise,
	"duchi":      refDuchi,
	"hybrid":     refHybrid,
	"staircase":  refStaircase,
	"scdf":       refSCDF,
}

// fixedTestEps spans SW's series branch (ε < 1e-3), Hybrid's pure-Duchi
// regime (ε ≤ 0.61) and the budgets the protocols split ε into.
var fixedTestEps = []float64{1e-4, 0.05, 0.25, 0.5, 0.61, 0.8, 1, 2, 4, 8}

// TestFixedMatchesReferenceBits draws the same values through the
// reference, the mechanism's Perturb and its Fix form from three RNGs on
// one seed: every release must agree to the bit, so the three consume
// identical draws.
func TestFixedMatchesReferenceBits(t *testing.T) {
	if len(refPerturb) != len(Registry()) {
		t.Fatalf("reference covers %d mechanisms, registry has %d", len(refPerturb), len(Registry()))
	}
	for name, mech := range Registry() {
		ref := refPerturb[name]
		if ref == nil {
			t.Fatalf("no reference for %s", name)
		}
		for ei, eps := range fixedTestEps {
			seed := uint64(1000*ei + len(name))
			vals := mathx.NewRNG(seed + 1)
			r0, r1, r2 := mathx.NewRNG(seed), mathx.NewRNG(seed), mathx.NewRNG(seed)
			fixed := Fix(mech, eps)
			if _, ok := fixed.(perCall); ok {
				t.Fatalf("%s has no precomputed fixed form", name)
			}
			for i := 0; i < 2000; i++ {
				v := vals.Uniform(-1, 1)
				if i%97 == 0 {
					v = float64(i%3 - 1) // the domain edges and 0
				}
				want := ref(r0, v, eps)
				got := mech.Perturb(r1, v, eps)
				gotFixed := fixed.Perturb(r2, v)
				if math.Float64bits(got) != math.Float64bits(want) || math.Float64bits(gotFixed) != math.Float64bits(want) {
					t.Fatalf("%s ε=%v t=%v draw %d: Perturb %v, Fix %v, reference %v", name, eps, v, i, got, gotFixed, want)
				}
			}
		}
	}
}

// TestFixedConstantsMatchReference compares the hoisted thresholds and
// band edges with the per-call expressions directly: a threshold one ulp
// off changes a release only when a draw lands between the two values,
// which the draw comparison above would almost never see.
func TestFixedConstantsMatchReference(t *testing.T) {
	same := func(what string, eps, got, want float64) {
		t.Helper()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s at ε=%v: fixed %v, reference %v", what, eps, got, want)
		}
	}
	for _, eps := range fixedTestEps {
		b := SquareWave{}.B(eps)
		e := math.Exp(eps)
		z := 2*b*e + 1
		sw := SquareWave{}.at(eps)
		same("SW band probability", eps, sw.pBand, 2*b*e/z)
		same("SW b", eps, sw.b, b)

		c := math.Exp(eps / 2)
		q := Piecewise{}.SupportBound(eps)
		pm := Piecewise{}.at(eps)
		same("PM band probability", eps, pm.pBand, c/(c+1))
		vals := mathx.NewRNG(uint64(eps * 1e4))
		for i := 0; i < 64; i++ {
			v := vals.Uniform(-1, 1)
			if i < 3 {
				v = float64(i - 1)
			}
			l, r := pm.band(v)
			wantL := (q+1)/2*v - (q-1)/2
			same("PM band low edge", eps, l, wantL)
			same("PM band high edge", eps, r, wantL+q-1)
			same("Duchi P[+B]", eps, Duchi{}.at(eps).pPlus(v), 0.5+v*(e-1)/(2*(e+1)))
		}
		same("Duchi B", eps, Duchi{}.at(eps).b, Duchi{}.SupportBound(eps))
		same("Hybrid α", eps, Hybrid{}.at(eps).alpha, Hybrid{}.Alpha(eps))
		same("Laplace scale", eps, Laplace{}.at(eps).scale, 2/eps)
		for _, gamma := range []float64{Staircase{}.Gamma(eps), 0.5} {
			sc := newStaircaseAt(eps, gamma)
			qe := math.Exp(-eps)
			same("staircase q", eps, sc.q, qe)
			same("staircase inner probability", eps, sc.pInner, gamma/(gamma+(1-gamma)*qe))
		}
	}
}

// customMech is a Mechanism outside the registry: Fix must fall back to
// its per-call Perturb.
type customMech struct{ Mechanism }

func (customMech) Name() string { return "custom" }

func (customMech) Perturb(rng *mathx.RNG, t, eps float64) float64 { return t + eps*rng.Float64() }

func TestFixFallsBackToPerturb(t *testing.T) {
	mech := customMech{Laplace{}}
	fixed := Fix(mech, 0.5)
	if _, ok := fixed.(perCall); !ok {
		t.Fatalf("custom mechanism fixed as %T, want the per-call fallback", fixed)
	}
	r1, r2 := mathx.NewRNG(3), mathx.NewRNG(3)
	for i := 0; i < 100; i++ {
		if got, want := fixed.Perturb(r1, 0.25), mech.Perturb(r2, 0.25, 0.5); got != want {
			t.Fatalf("draw %d: Fix %v, Perturb %v", i, got, want)
		}
	}
}

func TestFixEachSharesFormsPerBudget(t *testing.T) {
	forms := FixEach(SquareWave{}, []float64{0.5, 1, 0.5, 1, 2})
	if forms[0] != forms[2] || forms[1] != forms[3] || forms[0] == forms[1] || forms[4] == forms[1] {
		t.Fatalf("forms not shared per distinct budget: %v", forms)
	}
}

func TestFixedPanicsLikePerturb(t *testing.T) {
	for name, mech := range Registry() {
		for _, c := range []struct{ t, eps float64 }{{1.5, 1}, {math.NaN(), 1}, {0, 0}, {0, math.Inf(1)}} {
			want := panicOf(func() { mech.Perturb(mathx.NewRNG(1), c.t, c.eps) })
			got := panicOf(func() { Fix(mech, c.eps).Perturb(mathx.NewRNG(1), c.t) })
			if want == nil || got != want {
				t.Errorf("%s t=%v ε=%v: Fix panics %v, Perturb %v", name, c.t, c.eps, got, want)
			}
		}
	}
}

func panicOf(f func()) (p any) {
	defer func() { p = recover() }()
	f()
	return nil
}
