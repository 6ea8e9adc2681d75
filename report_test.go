package hdr4me

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"github.com/hdr4me/hdr4me/internal/freq"
	"github.com/hdr4me/hdr4me/internal/highdim"
	"github.com/hdr4me/hdr4me/internal/ldp"
	"github.com/hdr4me/hdr4me/internal/mathx"
)

// The client report path reseeds one pooled RNG per report, samples
// dimensions in O(m) over a kept identity permutation and perturbs
// through per-budget fixed mechanism forms. The reference below is the
// derivation it replaced — two fresh RNGs, a fresh O(d) permutation and
// Mechanism.Perturb with the budget re-derived per value — kept as the
// bitwise oracle: a report depends only on the seed and its observation
// index.

// reportOracleN is the number of reports each combination is checked on.
const reportOracleN = 10_000

// referenceSample is SampleIndices over a fresh identity permutation.
func referenceSample(rng *RNG, d, m int) []int {
	perm := make([]int, d)
	for i := range perm {
		perm[i] = i
	}
	dst := make([]int, m)
	for i := 0; i < m; i++ {
		j := i + rng.IntN(d-i)
		perm[i], perm[j] = perm[j], perm[i]
		dst[i] = perm[i]
	}
	slices.Sort(dst)
	return dst
}

// referenceReport derives observation i of a session seeded with seed.
func referenceReport(s *Session, seed uint64, i int, t Tuple) Report {
	rng := NewRNG(seed).Child(obsStream).Child(uint64(i))
	var rep Report
	switch e := s.est.(type) {
	case *meanEnhancer:
		p := e.Aggregator.P
		for _, j := range referenceSample(rng, p.D, p.M) {
			rep.Dims = append(rep.Dims, uint32(j))
			rep.Values = append(rep.Values, p.Mech.Perturb(rng, t.Values[j], e.EpsFor(j)))
		}
	case *freq.Flat:
		p := e.Aggregator.P
		for _, j := range referenceSample(rng, len(p.Cards), p.M) {
			rep.Dims = append(rep.Dims, uint32(j))
			for k := 0; k < p.Cards[j]; k++ {
				v := -1.0
				if k == t.Cats[j] {
					v = 1
				}
				rep.Values = append(rep.Values, p.Mech.Perturb(rng, v, p.EpsPerEntry()))
			}
		}
	default:
		panic(fmt.Sprintf("no reference for %T", e))
	}
	return rep
}

// oracleTuples draws n raw tuples for the session's family; every fifth
// mean-family tuple carries the domain edges.
func oracleTuples(n, d int, cards []int) []Tuple {
	rng := mathx.NewRNG(31)
	ts := make([]Tuple, n)
	for i := range ts {
		if cards != nil {
			ts[i].Cats = make([]int, len(cards))
			for j, c := range cards {
				ts[i].Cats[j] = rng.IntN(c)
			}
			continue
		}
		ts[i].Values = make([]float64, d)
		for j := range ts[i].Values {
			ts[i].Values[j] = rng.Uniform(-1, 1)
			if i%5 == 0 {
				ts[i].Values[j] = float64(j%3 - 1)
			}
		}
	}
	return ts
}

func sameReport(a, b Report) bool {
	return slices.Equal(a.Dims, b.Dims) && slices.EqualFunc(a.Values, b.Values, func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y)
	})
}

// checkReportOracle asserts, for sessions built from opts, that Report
// and Observe reproduce the reference bit for bit. Observe is compared on
// the estimate and the folded sums: a second session ingests the
// reference reports on the same stripe lanes Observe rotates over.
func checkReportOracle(t *testing.T, name string, d int, cards []int, opts ...Option) {
	t.Helper()
	const seed = 4242
	opts = append(opts, WithSeed(seed))
	reporter, err := New(opts...)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	observer, _ := New(opts...)
	ref, _ := New(opts...)
	for i, tu := range oracleTuples(reportOracleN, d, cards) {
		want := referenceReport(ref, seed, i, tu)
		got, err := reporter.Report(tu)
		if err != nil {
			t.Fatalf("%s: report %d: %v", name, i, err)
		}
		if !sameReport(got, want) {
			t.Fatalf("%s: report %d = %v, reference %v", name, i, got, want)
		}
		if err := observer.Observe(tu); err != nil {
			t.Fatalf("%s: observe %d: %v", name, i, err)
		}
		if err := ref.lanes[i%len(ref.lanes)].AddReport(want); err != nil {
			t.Fatalf("%s: reference ingest %d: %v", name, i, err)
		}
	}
	gotSnap, wantSnap := observer.Snapshot(), ref.Snapshot()
	for _, pair := range [][2][]float64{{observer.Estimate(), ref.Estimate()}, {gotSnap.Sums, wantSnap.Sums}} {
		if !slices.EqualFunc(pair[0], pair[1], func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }) {
			t.Fatalf("%s: Observe accumulates %v, reference %v", name, pair[0], pair[1])
		}
	}
	if !slices.Equal(gotSnap.Counts, wantSnap.Counts) {
		t.Fatalf("%s: Observe counts %v, reference %v", name, gotSnap.Counts, wantSnap.Counts)
	}
}

func TestReportMatchesReferenceBits(t *testing.T) {
	const eps, d, m = 2.0, 24, 4
	weights := make([]float64, d)
	for j := range weights {
		weights[j] = 1 + float64(j%5)
	}
	weighted, err := highdim.WeightedAllocation(eps, weights, m)
	if err != nil {
		t.Fatal(err)
	}
	cards := []int{3, 5, 2, 4}
	for _, name := range MechanismNames() {
		mech, _ := MechanismByName(name)
		base := []Option{WithMechanism(mech), WithBudget(eps)}
		checkReportOracle(t, name+"/uniform", d, nil, append(base, WithDims(d, m))...)
		checkReportOracle(t, name+"/weighted", d, nil, append(base, WithDims(d, m), WithAllocation(weighted))...)
		checkReportOracle(t, name+"/freq", 0, cards, append(base, WithCards(cards), WithDims(len(cards), 2))...)
	}
	// A mechanism outside the registry perturbs through the per-call
	// fallback.
	custom := []Option{WithMechanism(scaledLaplace{}), WithBudget(eps)}
	checkReportOracle(t, "custom/uniform", d, nil, append(custom, WithDims(d, m))...)
	checkReportOracle(t, "custom/weighted", d, nil, append(custom, WithDims(d, m), WithAllocation(weighted))...)
	checkReportOracle(t, "custom/freq", 0, cards, append(custom, WithCards(cards), WithDims(len(cards), 2))...)
}

// scaledLaplace is a Mechanism the ldp registry does not know: Laplace
// noise at twice the scale.
type scaledLaplace struct{ ldp.Mechanism }

func (scaledLaplace) Name() string  { return "scaled-laplace" }
func (scaledLaplace) Bounded() bool { return false }
func (scaledLaplace) Perturb(rng *mathx.RNG, t, eps float64) float64 {
	return t + rng.Laplace(4/eps)
}
func (scaledLaplace) Bias(t, eps float64) float64 { return 0 }
func (scaledLaplace) Var(t, eps float64) float64  { return 32 / (eps * eps) }

func reportKey(r Report) string {
	b := fmt.Appendf(nil, "%v|", r.Dims)
	for _, v := range r.Values {
		b = fmt.Appendf(b, "%x,", math.Float64bits(v))
	}
	return string(b)
}

// TestReportConcurrentIsPermutation runs Report from several goroutines:
// each call claims its own observation index, so together they must
// produce exactly the sequential stream's reports, in some order.
func TestReportConcurrentIsPermutation(t *testing.T) {
	const workers, per = 4, 500
	opts := []Option{WithMechanism(SquareWave()), WithBudget(4), WithDims(64, 8), WithSeed(9)}
	seq, err := New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	conc, _ := New(opts...)
	tu := oracleTuples(1, 64, nil)[0]
	var want []string
	for i := 0; i < workers*per; i++ {
		rep, err := seq.Report(tu)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, reportKey(rep))
	}
	got := make([][]string, workers)
	var wg sync.WaitGroup
	for w := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				rep, err := conc.Report(tu)
				if err != nil {
					t.Error(err)
					return
				}
				got[w] = append(got[w], reportKey(rep))
			}
		}()
	}
	wg.Wait()
	all := slices.Concat(got...)
	slices.Sort(all)
	slices.Sort(want)
	if !slices.Equal(all, want) {
		t.Fatal("concurrent reports are not a permutation of the sequential stream")
	}
}

// TestReportAllocatesOnlyTheReport pins the client path: Session.Report
// allocates the returned Dims and Values and nothing else.
func TestReportAllocatesOnlyTheReport(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	for _, spec := range []QuerySpec{benchSpecSW256, benchSpecLap32, benchSpecFreq} {
		s, err := NewFromSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		tu := oracleTuples(1, spec.D, spec.Cards)[0]
		if _, err := s.Report(tu); err != nil { // warm the pool
			t.Fatal(err)
		}
		n := testing.AllocsPerRun(200, func() {
			if _, err := s.Report(tu); err != nil {
				t.Fatal(err)
			}
		})
		if n > 2 {
			t.Errorf("%s %s: Session.Report allocates %v per report, want ≤ 2 (Dims, Values)", spec.Kind, spec.Mech, n)
		}
	}
}
