package freq

import (
	"math"
	"testing"

	"github.com/hdr4me/hdr4me/internal/est"
	"github.com/hdr4me/hdr4me/internal/ldp"
	"github.com/hdr4me/hdr4me/internal/mathx"
	"github.com/hdr4me/hdr4me/internal/recal"
)

func newTestFlat(t *testing.T, cards []int, m int, eps float64) *Flat {
	t.Helper()
	f, err := NewFlat(Protocol{Mech: ldp.Laplace{}, Eps: eps, Cards: cards, M: m}, recal.DefaultConfig(recal.RegL1))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestFlatObserveRecoversFrequencies(t *testing.T) {
	cards := []int{3, 4}
	ds := NewZipfCat(30_000, cards, 1.2, 7)
	f := newTestFlat(t, cards, 1, 4)
	rng := mathx.NewRNG(17)
	cats := make([]int, len(cards))
	for i := 0; i < ds.NumUsers(); i++ {
		for j := range cats {
			cats[j] = ds.Value(i, j)
		}
		if err := f.Observe(est.Tuple{Cats: cats}, rng); err != nil {
			t.Fatal(err)
		}
	}
	if f.Dims() != 7 {
		t.Fatalf("flat dims %d", f.Dims())
	}
	flat := f.Estimate()
	rows, err := f.Unflatten(flat)
	if err != nil {
		t.Fatal(err)
	}
	ProjectSimplex(rows)
	truth := TrueFreqs(ds)
	for j := range truth {
		for k := range truth[j] {
			if math.Abs(rows[j][k]-truth[j][k]) > 0.1 {
				t.Fatalf("freq[%d][%d] = %v, true %v", j, k, rows[j][k], truth[j][k])
			}
		}
	}
	enhanced, err := f.Enhanced()
	if err != nil {
		t.Fatal(err)
	}
	if len(enhanced) != 7 {
		t.Fatalf("enhanced width %d", len(enhanced))
	}
	// Offsets index the flattened space.
	if f.Offset(0) != 0 || f.Offset(1) != 3 {
		t.Fatalf("offsets %d %d", f.Offset(0), f.Offset(1))
	}
}

func TestFlatAddReportValidates(t *testing.T) {
	f := newTestFlat(t, []int{2, 3}, 1, 2)
	good := est.Report{Dims: []uint32{1}, Values: []float64{0.2, -0.7, 0.1}}
	if err := f.AddReport(good); err != nil {
		t.Fatal(err)
	}
	bad := []est.Report{
		{Dims: []uint32{5}, Values: []float64{1, 1}},          // dim out of range
		{Dims: []uint32{0}, Values: []float64{1, 1, 1}},       // wrong value count
		{Dims: []uint32{0, 1}, Values: []float64{1, 1}},       // more dims than m
		{Dims: []uint32{1, 1}, Values: []float64{1, 1, 1, 1}}, // repeated dim
	}
	for i, rep := range bad {
		if err := f.AddReport(rep); err == nil {
			t.Errorf("bad report %d accepted", i)
		}
	}
	if c := f.Counts(); c[0] != 0 || c[1] != 1 {
		t.Fatalf("counts %v", c)
	}
}

func TestFlatSnapshotMergeRoundTrip(t *testing.T) {
	cards := []int{2, 3}
	a := newTestFlat(t, cards, 2, 2)
	b := newTestFlat(t, cards, 2, 2)
	rng := mathx.NewRNG(5)
	for i := 0; i < 500; i++ {
		if err := a.Observe(est.Tuple{Cats: []int{i % 2, i % 3}}, rng); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Merge(a.Snapshot()); err != nil {
		t.Fatal(err)
	}
	ea, eb := a.Estimate(), b.Estimate()
	for i := range ea {
		if math.Abs(ea[i]-eb[i]) > 1e-12 {
			t.Fatalf("merged estimate diverges at %d: %v vs %v", i, ea[i], eb[i])
		}
	}
	// Card mismatch must be rejected.
	other := newTestFlat(t, []int{2, 4}, 2, 2)
	if err := b.Merge(other.Snapshot()); err == nil {
		t.Fatal("card mismatch accepted")
	}
	if err := b.Merge(est.Snapshot{Kind: KindFreq, Cards: cards, Sums: make([]float64, 2), Counts: make([]int64, 2)}); err == nil {
		t.Fatal("shape mismatch accepted")
	}
}

func TestFlatObserveValidatesTuple(t *testing.T) {
	f := newTestFlat(t, []int{2, 3}, 1, 2)
	rng := mathx.NewRNG(1)
	if err := f.Observe(est.Tuple{Cats: []int{0}}, rng); err == nil {
		t.Fatal("short tuple accepted")
	}
	if err := f.Observe(est.Tuple{Cats: []int{0, 3}}, rng); err == nil {
		t.Fatal("out-of-range category accepted")
	}
}

// TestFlatEnhancedFromIsOneInstant enhances a snapshot after more reports
// have landed: the result must be the one a fresh collector holding only
// that snapshot computes, so sums and the counts weighting their
// deviations never come from different instants.
func TestFlatEnhancedFromIsOneInstant(t *testing.T) {
	cards := []int{3, 4, 2}
	for _, mech := range []ldp.Mechanism{ldp.Laplace{}, ldp.SquareWave{}} {
		p := Protocol{Mech: mech, Eps: 2, Cards: cards, M: 2}
		f, err := NewFlat(p, recal.Config{Reg: recal.RegL2, Conf: 0.95, L2Floor: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		rng := mathx.NewRNG(23)
		cats := make([]int, len(cards))
		observe := func(n int) {
			for i := 0; i < n; i++ {
				for j, c := range cards {
					cats[j] = rng.IntN(c)
				}
				if err := f.Observe(est.Tuple{Cats: cats}, rng); err != nil {
					t.Fatal(err)
				}
			}
		}
		observe(400)
		snap := f.Snapshot()
		observe(400)
		got, err := f.EnhancedFrom(snap)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := NewFlat(p, f.Cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.Merge(snap); err != nil {
			t.Fatal(err)
		}
		want, err := ref.Enhanced()
		if err != nil {
			t.Fatal(err)
		}
		live, err := f.Enhanced()
		if err != nil {
			t.Fatal(err)
		}
		same := true
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s entry %d: EnhancedFrom %v, snapshot-only reference %v", mech.Name(), i, got[i], want[i])
			}
			same = same && live[i] == got[i]
		}
		if same {
			t.Fatalf("%s: live Enhanced equals the stale snapshot's; later reports were not seen", mech.Name())
		}
		bad := snap
		bad.Sums = bad.Sums[1:]
		if _, err := f.EnhancedFrom(bad); err == nil {
			t.Fatalf("%s: mis-shaped snapshot accepted", mech.Name())
		}
	}
}

// TestFlatNaiveReadsAgreeOnEmptyDims pins the one naive mapping: Estimate,
// EstimateFrom, EstimateWeighted and the enhanced path's naive side agree
// bit for bit, including a dimension that received no reports — whose
// entries read 1/2, the image of the empty released mean 0.
func TestFlatNaiveReadsAgreeOnEmptyDims(t *testing.T) {
	p := Protocol{Mech: ldp.Piecewise{}, Eps: 2, Cards: []int{3, 4, 2}, M: 1}
	f, err := NewFlat(p, recal.DefaultConfig(recal.RegL1))
	if err != nil {
		t.Fatal(err)
	}
	rng := mathx.NewRNG(3)
	for i := 0; i < 500; i++ {
		// Dimension 1 never appears in a report.
		j := []int{0, 2}[i%2]
		rep := est.Report{Dims: []uint32{uint32(j)}}
		for k := 0; k < p.Cards[j]; k++ {
			rep.Values = append(rep.Values, rng.Uniform(-3, 3))
		}
		if err := f.AddReport(rep); err != nil {
			t.Fatal(err)
		}
	}
	snap := f.Snapshot()
	if snap.Counts[1] != 0 {
		t.Fatalf("dimension 1 has %d reports, want 0", snap.Counts[1])
	}
	fromSnap, err := f.EstimateFrom(snap)
	if err != nil {
		t.Fatal(err)
	}
	sums, counts := make([]float64, len(snap.Sums)), make([]float64, len(snap.Counts))
	copy(sums, snap.Sums)
	for j, c := range snap.Counts {
		counts[j] = float64(c)
	}
	weighted, err := f.EstimateWeighted(sums, counts)
	if err != nil {
		t.Fatal(err)
	}
	naive, _ := f.Aggregator.EstimateEnhanced(f.Cfg)
	var enhancedNaive []float64
	for _, row := range naive {
		enhancedNaive = append(enhancedNaive, row...)
	}
	want := f.Estimate()
	for name, got := range map[string][]float64{"EstimateFrom": fromSnap, "EstimateWeighted": weighted, "EstimateEnhanced naive": enhancedNaive} {
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s entry %d = %v, Estimate %v", name, i, got[i], want[i])
			}
		}
	}
	for k := 0; k < p.Cards[1]; k++ {
		if v := want[f.Offset(1)+k]; v != 0.5 {
			t.Fatalf("empty dimension entry %d = %v, want 0.5", k, v)
		}
	}
}
