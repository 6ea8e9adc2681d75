package ldp

import (
	"math"
	"testing"

	"github.com/hdr4me/hdr4me/internal/mathx"
)

// mcMoments estimates mean/variance/third-abs-moment of m's output for
// fixed (t, eps) from n samples.
func mcMoments(t *testing.T, m Mechanism, val, eps float64, n int) (mean, variance, rho float64) {
	t.Helper()
	rng := mathx.NewRNG(0xbead ^ uint64(math.Float64bits(val)) ^ uint64(math.Float64bits(eps)))
	var w mathx.Welford
	samples := make([]float64, n)
	for i := 0; i < n; i++ {
		x := m.Perturb(rng, val, eps)
		samples[i] = x
		w.Add(x)
	}
	delta := m.Bias(val, eps)
	var r mathx.KahanSum
	for _, x := range samples {
		d := math.Abs(x - val - delta)
		r.Add(d * d * d)
	}
	return w.Mean(), w.Var(), r.Value() / float64(n)
}

func testPoints() []struct{ t, eps float64 } {
	return []struct{ t, eps float64 }{
		{0, 1}, {0.5, 1}, {-0.8, 1}, {1, 1}, {-1, 1},
		{0.3, 0.1}, {-0.6, 0.5}, {0.9, 4}, {0.2, 8},
	}
}

func TestAllMechanismsMomentsMatchMonteCarlo(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte Carlo moment check skipped in -short")
	}
	const n = 300_000
	for name, m := range Registry() {
		for _, pt := range testPoints() {
			mean, variance, rho := mcMoments(t, m, pt.t, pt.eps, n)
			wantMean := pt.t + m.Bias(pt.t, pt.eps)
			wantVar := m.Var(pt.t, pt.eps)
			wantRho := m.ThirdAbsMoment(pt.t, pt.eps)
			sd := math.Sqrt(wantVar / n)
			if diff := math.Abs(mean - wantMean); diff > 6*sd+1e-6 {
				t.Errorf("%s(t=%v,ε=%v): mean %v, want %v (±%v)", name, pt.t, pt.eps, mean, wantMean, 6*sd)
			}
			if wantVar > 0 && math.Abs(variance-wantVar)/wantVar > 0.05 {
				t.Errorf("%s(t=%v,ε=%v): var %v, want %v", name, pt.t, pt.eps, variance, wantVar)
			}
			if wantRho > 0 && math.Abs(rho-wantRho)/wantRho > 0.10 {
				t.Errorf("%s(t=%v,ε=%v): ρ %v, want %v", name, pt.t, pt.eps, rho, wantRho)
			}
		}
	}
}

func TestBoundedOutputsStayInSupport(t *testing.T) {
	rng := mathx.NewRNG(99)
	for name, m := range Registry() {
		if !m.Bounded() {
			continue
		}
		for _, pt := range testPoints() {
			bound := m.SupportBound(pt.eps)
			for i := 0; i < 2000; i++ {
				x := m.Perturb(rng, pt.t, pt.eps)
				if math.Abs(x) > bound+1e-12 {
					t.Fatalf("%s(t=%v,ε=%v): output %v exceeds bound %v", name, pt.t, pt.eps, x, bound)
				}
			}
		}
	}
}

func TestUnboundedMomentsDataIndependent(t *testing.T) {
	// Lemma 1: for Bound(M)=0 the moments must not depend on t.
	for _, m := range []Mechanism{Laplace{}, Staircase{}, SCDF{}} {
		for _, eps := range []float64{0.2, 1, 3} {
			v0 := m.Var(0, eps)
			r0 := m.ThirdAbsMoment(0, eps)
			for _, tv := range []float64{-1, -0.3, 0.7, 1} {
				if m.Var(tv, eps) != v0 {
					t.Errorf("%s: Var depends on t", m.Name())
				}
				if m.ThirdAbsMoment(tv, eps) != r0 {
					t.Errorf("%s: ρ depends on t", m.Name())
				}
				if m.Bias(tv, eps) != 0 {
					t.Errorf("%s: unexpected bias", m.Name())
				}
			}
		}
	}
}

func TestBoundedMomentsDependOnT(t *testing.T) {
	// Lemma 1: for Bound(M)=1 the variance is correlated with t. Hybrid is
	// excluded: its mixture weights are tuned so the t² terms of PM and Duchi
	// cancel exactly (α/(e^{ε/2}−1) = 1−α = e^{−ε/2}), making its variance
	// t-independent even though the mechanism is bounded.
	for _, m := range []Mechanism{Piecewise{}, SquareWave{}, Duchi{}} {
		if m.Var(0, 1) == m.Var(0.9, 1) {
			t.Errorf("%s: variance should depend on t", m.Name())
		}
	}
}

func TestHybridVarianceIsExactlyTIndependent(t *testing.T) {
	h := Hybrid{}
	for _, eps := range []float64{0.8, 1, 2, 4} {
		v0 := h.Var(0, eps)
		for _, tv := range []float64{-1, -0.4, 0.5, 1} {
			if diff := math.Abs(h.Var(tv, eps) - v0); diff > 1e-12 {
				t.Errorf("ε=%v: hybrid var at t=%v differs from t=0 by %v", eps, tv, diff)
			}
		}
	}
}

func TestRegistryAndByName(t *testing.T) {
	reg := Registry()
	if len(reg) != 7 {
		t.Fatalf("registry has %d mechanisms, want 7", len(reg))
	}
	for name := range reg {
		m, err := ByName(name)
		if err != nil || m == nil {
			t.Errorf("ByName(%q) failed: %v", name, err)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown name must error")
	}
	ev := Evaluated()
	if len(ev) != 3 || ev[0].Name() != "Laplace" || ev[1].Name() != "Piecewise" || ev[2].Name() != "SquareWave" {
		t.Errorf("Evaluated() = %v", ev)
	}
}

func TestValidateRejectsGarbage(t *testing.T) {
	rng := mathx.NewRNG(1)
	cases := []struct{ t, eps float64 }{
		{1.5, 1}, {-2, 1}, {math.NaN(), 1}, {0, 0}, {0, -1}, {0, math.Inf(1)},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Perturb(t=%v, ε=%v) should panic", c.t, c.eps)
				}
			}()
			Laplace{}.Perturb(rng, c.t, c.eps)
		}()
	}
}

// ldpRatioCheck verifies the ε-LDP inequality Pr[M(t1)=x]/Pr[M(t2)=x] ≤ e^ε
// on a grid of outputs for density-based mechanisms.
func ldpRatioCheck(t *testing.T, name string, pdf func(tv, x float64) float64, eps float64, support float64) {
	t.Helper()
	inputs := []float64{-1, -0.5, 0, 0.3, 0.9, 1}
	limit := math.Exp(eps) * (1 + 1e-9)
	for _, t1 := range inputs {
		for _, t2 := range inputs {
			for i := 0; i <= 400; i++ {
				x := -support + 2*support*float64(i)/400
				p1, p2 := pdf(t1, x), pdf(t2, x)
				if p1 == 0 && p2 == 0 {
					continue
				}
				if p2 == 0 || p1/p2 > limit {
					t.Fatalf("%s: LDP violated at t1=%v t2=%v x=%v: %v / %v", name, t1, t2, x, p1, p2)
				}
			}
		}
	}
}

func TestPiecewiseSatisfiesLDP(t *testing.T) {
	for _, eps := range []float64{0.5, 1, 4} {
		pm := Piecewise{}
		q := pm.SupportBound(eps)
		ldpRatioCheck(t, "piecewise", func(tv, x float64) float64 { return pm.PDF(tv, eps, x) }, eps, q)
	}
}

func TestSquareWaveSatisfiesLDP(t *testing.T) {
	for _, eps := range []float64{0.5, 1, 4} {
		sw := SquareWave{}
		ldpRatioCheck(t, "squarewave", func(tv, x float64) float64 { return sw.PDF(tv, eps, x) }, eps, sw.SupportBound(eps))
	}
}

func TestLaplaceSatisfiesLDP(t *testing.T) {
	for _, eps := range []float64{0.5, 1, 4} {
		lam := Laplace{}.Scale(eps)
		pdf := func(tv, x float64) float64 {
			return math.Exp(-math.Abs(x-tv)/lam) / (2 * lam)
		}
		ldpRatioCheck(t, "laplace", pdf, eps, 6)
	}
}

func TestStaircaseSatisfiesLDP(t *testing.T) {
	sc := Staircase{}
	for _, eps := range []float64{0.5, 1, 4} {
		pdf := func(tv, x float64) float64 { return sc.NoisePDF(eps, x-tv) }
		ldpRatioCheck(t, "staircase", pdf, eps, 8)
	}
}

func TestDuchiSatisfiesLDP(t *testing.T) {
	d := Duchi{}
	for _, eps := range []float64{0.5, 1, 4} {
		limit := math.Exp(eps) * (1 + 1e-12)
		for _, t1 := range []float64{-1, 0, 1} {
			for _, t2 := range []float64{-1, 0, 1} {
				pp1, pp2 := d.at(eps).pPlus(t1), d.at(eps).pPlus(t2)
				if pp1/pp2 > limit || (1-pp1)/(1-pp2) > limit {
					t.Fatalf("duchi LDP violated at ε=%v, t1=%v, t2=%v", eps, t1, t2)
				}
			}
		}
	}
}
