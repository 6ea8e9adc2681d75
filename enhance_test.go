package hdr4me

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"github.com/hdr4me/hdr4me/internal/analysis"
	"github.com/hdr4me/hdr4me/internal/est"
	"github.com/hdr4me/hdr4me/internal/freq"
	"github.com/hdr4me/hdr4me/internal/highdim"
	"github.com/hdr4me/hdr4me/internal/ldp"
	"github.com/hdr4me/hdr4me/internal/mathx"
	"github.com/hdr4me/hdr4me/internal/recal"
)

// The enhanced read paths memoize the §IV moments and evaluate the
// confidence quantile once per call. The reference below is the
// derivation they replaced — a Lemma 3 loop and a Φ⁻¹ for every
// dimension of every read — kept as the bitwise oracle.

// referenceDeviation is the per-dimension Lemma 2/3 Gaussian, computed
// from scratch.
func referenceDeviation(mech ldp.Mechanism, eps, r float64, spec analysis.DataSpec) analysis.Deviation {
	if !mech.Bounded() {
		return analysis.Deviation{Delta: mech.Bias(0, eps), Sigma2: mech.Var(0, eps) / r}
	}
	var db, vb mathx.KahanSum
	for z, v := range spec.Values {
		p := spec.Probs[z]
		db.Add(p * mech.Bias(v, eps))
		vb.Add(p * mech.Var(v, eps))
	}
	return analysis.Deviation{Delta: db.Value(), Sigma2: vb.Value() / r}
}

// referenceEnhance is HDR4ME with the sup-deviation quantile evaluated
// per dimension (twice when guarded).
func referenceEnhance(naive []float64, devs []analysis.Deviation, cfg recal.Config) []float64 {
	if cfg.Reg == recal.RegNone {
		return append([]float64(nil), naive...)
	}
	conf := cfg.Conf
	if conf <= 0 || conf >= 1 {
		conf = 0.999
	}
	threshold := 1.0
	if cfg.Reg == recal.RegL2 {
		threshold = 2
	}
	lambda := make([]float64, len(naive))
	for j, dev := range devs {
		if cfg.Guarded && dev.SupAbs(conf) <= threshold {
			continue
		}
		switch {
		case cfg.Reg == recal.RegL1:
			lambda[j] = dev.SupAbs(conf)
		case cfg.L2Floor > 0:
			lambda[j] = dev.SupAbs(conf) / (2 * math.Max(math.Abs(dev.Delta), cfg.L2Floor))
		case dev.Delta == 0:
			lambda[j] = math.Inf(1)
		default:
			lambda[j] = dev.SupAbs(conf) / (2 * math.Abs(dev.Delta))
		}
	}
	if cfg.Reg == recal.RegL1 {
		return recal.SoftThreshold(naive, lambda)
	}
	return recal.Shrink(naive, lambda)
}

// referenceMeanEnhanced rebuilds the 21-atom prior and every dimension's
// deviation from the snapshot alone.
func referenceMeanEnhanced(t *testing.T, agg *highdim.Aggregator, snap Snapshot, cfg recal.Config) []float64 {
	t.Helper()
	naive, err := agg.EstimateFrom(snap)
	if err != nil {
		t.Fatal(err)
	}
	devs := make([]analysis.Deviation, len(naive))
	for j := range devs {
		r := math.Max(float64(snap.Counts[j]), 1)
		devs[j] = referenceDeviation(agg.P.Mech, agg.EpsFor(j), r, UniformGridSpec(21))
	}
	return referenceEnhance(naive, devs, cfg)
}

// referenceFreqEnhanced is the per-entry plug-in derivation of the
// frequency family over one snapshot.
func referenceFreqEnhanced(f *freq.Flat, snap Snapshot, cfg recal.Config) []float64 {
	var out []float64
	for j, card := range f.P.Cards {
		naive := make([]float64, card)
		for k := range naive {
			var mean float64
			if snap.Counts[j] != 0 {
				mean = snap.Sums[f.Offset(j)+k] / float64(snap.Counts[j])
			}
			naive[k] = (mean + 1) / 2
		}
		r := float64(snap.Counts[j])
		if r == 0 {
			out = append(out, naive...)
			continue
		}
		devs := make([]analysis.Deviation, card)
		for k := range devs {
			fr := mathx.Clamp(naive[k], 1/(10*float64(card)), 1)
			spec := analysis.DataSpec{Values: []float64{-1, 1}, Probs: []float64{1 - fr, fr}}
			dev := referenceDeviation(f.P.Mech, f.P.EpsPerEntry(), r, spec)
			devs[k] = analysis.Deviation{Delta: dev.Delta / 2, Sigma2: dev.Sigma2 / 4}
		}
		out = append(out, referenceEnhance(naive, devs, cfg)...)
	}
	return out
}

// oracleConfigs spans both regularizers, the L2 floor, the guard and two
// confidences.
func oracleConfigs() []recal.Config {
	var cfgs []recal.Config
	for _, conf := range []float64{0.95, 0.999} {
		for _, guarded := range []bool{false, true} {
			cfgs = append(cfgs,
				recal.Config{Reg: recal.RegL1, Conf: conf, Guarded: guarded},
				recal.Config{Reg: recal.RegL2, Conf: conf, Guarded: guarded},
				recal.Config{Reg: recal.RegL2, Conf: conf, Guarded: guarded, L2Floor: 0.05})
		}
	}
	return append(cfgs, recal.Config{Reg: recal.RegNone})
}

func assertSameBits(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries, reference %d", label, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: entry %d = %v (%#x), reference %v (%#x)",
				label, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestMeanEnhancedMatchesReferenceBits drives every registered mechanism
// under uniform and unequal per-dimension budgets, with one dimension
// that never receives a report (r clamped to 1) and one that receives
// few, through every configuration of the matrix.
func TestMeanEnhancedMatchesReferenceBits(t *testing.T) {
	const d, m = 6, 2
	alloc, err := highdim.WeightedAllocation(1, []float64{1, 2, 3, 4, 5, 6}, m)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range MechanismNames() {
		mech, err := MechanismByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, allocated := range []bool{false, true} {
			opts := []Option{WithMechanism(mech), WithBudget(1), WithDims(d, m)}
			if allocated {
				opts = append(opts, WithAllocation(alloc))
			}
			s, err := New(opts...)
			if err != nil {
				t.Fatal(err)
			}
			me := s.Estimator().(*meanEnhancer)
			want := 1
			if allocated {
				want = d
			}
			if len(me.moments) != want {
				t.Fatalf("%s allocated=%v: %d memoized moments, want %d", name, allocated, len(me.moments), want)
			}
			rng := NewRNG(7)
			row := make([]float64, d)
			for i := 0; i < 1500; i++ {
				for j := range row {
					row[j] = rng.Uniform(-1, 1)
				}
				rep, err := me.MakeReport(Tuple{Values: row}, rng)
				if err != nil {
					t.Fatal(err)
				}
				// Dimension 5 stays empty; dimension 4 stays sparse.
				if hasDim(rep.Dims, 5) || (hasDim(rep.Dims, 4) && i%20 != 0) {
					continue
				}
				if err := s.AddReport(rep); err != nil {
					t.Fatal(err)
				}
			}
			snap := s.Snapshot()
			if snap.Counts[5] != 0 || snap.Counts[4] == 0 {
				t.Fatalf("counts %v: want dimension 5 empty and dimension 4 sparse", snap.Counts)
			}
			for _, cfg := range oracleConfigs() {
				label := fmt.Sprintf("%s allocated=%v %+v", name, allocated, cfg)
				want := referenceMeanEnhanced(t, me.Aggregator, snap, cfg)
				got, err := me.withConfig(cfg).enhancedFrom(snap)
				if err != nil {
					t.Fatal(err)
				}
				assertSameBits(t, label, got, want)
				got, err = s.EstimateEnhancedWith(cfg)
				if err != nil {
					t.Fatal(err)
				}
				assertSameBits(t, label+" EstimateEnhancedWith", got, want)
			}
		}
	}
}

// TestFreqEnhancedMatchesReferenceBits runs the same matrix over the
// frequency family, with one categorical dimension left without reports.
// Categories are skewed toward 0 so rare entries hit the plug-in spec's
// frequency floor.
func TestFreqEnhancedMatchesReferenceBits(t *testing.T) {
	cards := []int{3, 4, 2, 5}
	for _, name := range MechanismNames() {
		mech, err := MechanismByName(name)
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(WithMechanism(mech), WithBudget(2), WithCards(cards), WithDims(len(cards), 2))
		if err != nil {
			t.Fatal(err)
		}
		f := s.Estimator().(*freq.Flat)
		rng := NewRNG(11)
		cats := make([]int, len(cards))
		for i := 0; i < 1500; i++ {
			for j, c := range cards {
				cats[j] = 0
				if rng.Bernoulli(0.2) {
					cats[j] = rng.IntN(c)
				}
			}
			rep, err := f.MakeReport(Tuple{Cats: cats}, rng)
			if err != nil {
				t.Fatal(err)
			}
			if hasDim(rep.Dims, 2) {
				continue
			}
			if err := s.AddReport(rep); err != nil {
				t.Fatal(err)
			}
		}
		snap := s.Snapshot()
		if snap.Counts[2] != 0 {
			t.Fatalf("counts %v: want dimension 2 empty", snap.Counts)
		}
		for _, cfg := range oracleConfigs() {
			label := fmt.Sprintf("%s %+v", name, cfg)
			want := referenceFreqEnhanced(f, snap, cfg)
			rebound := freq.Flat{Aggregator: f.Aggregator, Cfg: cfg}
			got, err := rebound.EnhancedFrom(snap)
			if err != nil {
				t.Fatal(err)
			}
			assertSameBits(t, label, got, want)
			got, err = s.EstimateEnhancedWith(cfg)
			if err != nil {
				t.Fatal(err)
			}
			assertSameBits(t, label+" EstimateEnhancedWith", got, want)
		}
	}
}

func hasDim(dims []uint32, j uint32) bool {
	for _, k := range dims {
		if k == j {
			return true
		}
	}
	return false
}

// TestEnhancedConcurrentWithIngest serves ENHANCED over TCP and
// EstimateEnhancedWith in-process while another goroutine ingests into
// the same query. The memoized moments are shared read-only, so under
// -race this must be clean; once ingest stops, both read paths must agree
// bit for bit with the session's own enhanced estimate.
func TestEnhancedConcurrentWithIngest(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"mean", []Option{WithMechanism(SquareWave()), WithBudget(1), WithDims(16, 4)}},
		{"freq", []Option{WithMechanism(Piecewise()), WithBudget(2), WithCards([]int{3, 4, 2}), WithDims(3, 2)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := New(append(tc.opts, WithEnhance(DefaultEnhanceConfig(RegL1)))...)
			if err != nil {
				t.Fatal(err)
			}
			srv := NewEstimatorServer(s.Estimator())
			addr, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			cl, err := DialCollector(addr.String())
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()

			reporter := s.Estimator().(est.Reporter)
			tuple := func(rng *RNG) Tuple {
				if tc.name == "freq" {
					return Tuple{Cats: []int{rng.IntN(3), rng.IntN(4), rng.IntN(2)}}
				}
				vals := make([]float64, 16)
				for j := range vals {
					vals[j] = rng.Uniform(-1, 1)
				}
				return Tuple{Values: vals}
			}
			dims := s.Estimator().Dims()
			done := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() { // ingest
				defer wg.Done()
				defer close(done)
				rng := NewRNG(31)
				for i := 0; i < 2000; i++ {
					rep, err := reporter.MakeReport(tuple(rng), rng)
					if err != nil {
						t.Error(err)
						return
					}
					if err := s.AddReport(rep); err != nil {
						t.Error(err)
						return
					}
				}
			}()
			cfg := EnhanceConfig{Reg: RegL2, Conf: 0.95, L2Floor: 0.05}
			reads := 0
			for running := true; running || reads < 10; reads++ {
				select {
				case <-done:
					running = false
				default:
				}
				over, err := cl.Enhanced()
				if err != nil {
					t.Fatal(err)
				}
				with, err := s.EstimateEnhancedWith(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if len(over) != dims || len(with) != dims {
					t.Fatalf("widths %d/%d, want %d", len(over), len(with), dims)
				}
			}
			wg.Wait()
			want, err := s.EstimateEnhanced()
			if err != nil {
				t.Fatal(err)
			}
			got, err := cl.Enhanced()
			if err != nil {
				t.Fatal(err)
			}
			assertSameBits(t, tc.name+" quiescent TCP", got, want)
		})
	}
}
