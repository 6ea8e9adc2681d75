// Package analysis implements the paper's first contribution (§IV): a
// general analytical framework that, for any LDP mechanism extended to
// high-dimensional mean estimation, derives the asymptotic Gaussian law of
// the per-dimension deviation θ̂ⱼ − θ̄ⱼ (Lemmas 2 and 3), the joint
// multivariate density of the deviation vector (Theorem 1), box
// probabilities for benchmarking mechanisms against a deviation supremum
// (§IV-C, Table II), and the Berry–Esseen approximation-error bound
// (Theorem 2).
package analysis

import (
	"fmt"
	"math"
	"sort"

	"github.com/hdr4me/hdr4me/internal/ldp"
	"github.com/hdr4me/hdr4me/internal/mathx"
)

// DataSpec is a discrete model of one dimension's original-value
// distribution: Values[z] occurs with probability Probs[z]. Lemma 3 needs it
// because bounded mechanisms' moments depend on the input value; unbounded
// mechanisms (Lemma 2) ignore it. Continuous data is discretized by sampling
// (see SpecFromSamples), exactly as the paper prescribes.
type DataSpec struct {
	Values []float64
	Probs  []float64
}

// Validate checks the spec invariants.
func (s DataSpec) Validate() error {
	if len(s.Values) == 0 || len(s.Values) != len(s.Probs) {
		return fmt.Errorf("analysis: spec has %d values and %d probs", len(s.Values), len(s.Probs))
	}
	var sum float64
	for i, p := range s.Probs {
		if p < 0 {
			return fmt.Errorf("analysis: negative probability %v", p)
		}
		if s.Values[i] < -1 || s.Values[i] > 1 || math.IsNaN(s.Values[i]) {
			return fmt.Errorf("analysis: spec value %v outside [-1,1]", s.Values[i])
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		return fmt.Errorf("analysis: spec probabilities sum to %v", sum)
	}
	return nil
}

// UniformSpec returns a spec placing equal mass on each value.
func UniformSpec(values ...float64) DataSpec {
	probs := make([]float64, len(values))
	for i := range probs {
		probs[i] = 1 / float64(len(values))
	}
	return DataSpec{Values: values, Probs: probs}
}

// CaseStudySpec is the §IV-C workload: v = 10 values {0.1, ..., 1.0}, each
// with probability 10%.
func CaseStudySpec() DataSpec {
	vals := make([]float64, 10)
	for i := range vals {
		vals[i] = float64(i+1) / 10
	}
	return UniformSpec(vals...)
}

// SpecFromSamples discretizes an empirical column into at most k equal-mass
// atoms placed at evenly spaced order statistics — the paper's "we
// discretize them with sampling" for continuous data.
func SpecFromSamples(samples []float64, k int) DataSpec {
	if len(samples) == 0 {
		panic("analysis: no samples")
	}
	if k < 1 {
		k = 1
	}
	if k > len(samples) {
		k = len(samples)
	}
	sorted := mathx.Clone(samples)
	sort.Float64s(sorted)
	vals := make([]float64, k)
	for i := 0; i < k; i++ {
		// Midpoint of the i-th of k equal-mass blocks.
		q := (float64(i) + 0.5) / float64(k)
		idx := int(q * float64(len(sorted)))
		if idx >= len(sorted) {
			idx = len(sorted) - 1
		}
		vals[i] = sorted[idx]
	}
	return UniformSpec(vals...)
}

// SpecFromCounts builds a spec from a column of discrete observations by
// grouping exactly equal values and weighting by their realized frequencies.
// Use it when the data is genuinely discrete (the §IV-C / Fig. 3 workload):
// unlike the idealized design probabilities, the realized frequencies are
// what Lemma 3 sees for a concrete dataset.
func SpecFromCounts(col []float64) DataSpec {
	if len(col) == 0 {
		panic("analysis: no samples")
	}
	counts := make(map[float64]int, 16)
	for _, v := range col {
		counts[v]++
	}
	vals := make([]float64, 0, len(counts))
	for v := range counts {
		vals = append(vals, v)
	}
	sort.Float64s(vals)
	probs := make([]float64, len(vals))
	for i, v := range vals {
		probs[i] = float64(counts[v]) / float64(len(col))
	}
	return DataSpec{Values: vals, Probs: probs}
}

// Deviation is the Gaussian that approximates θ̂ⱼ − θ̄ⱼ in one dimension:
// mean Delta (the residual bias δⱼ) and variance Sigma2 (σⱼ²).
type Deviation struct {
	Delta  float64
	Sigma2 float64
}

// Sigma returns σⱼ.
func (d Deviation) Sigma() float64 { return math.Sqrt(d.Sigma2) }

// PDF evaluates the approximating Gaussian density at x.
func (d Deviation) PDF(x float64) float64 { return mathx.NormPDF(x, d.Delta, d.Sigma()) }

// ProbWithin returns P[|θ̂ⱼ − θ̄ⱼ| ≤ xi] under the Gaussian approximation —
// the per-dimension benchmarking yardstick of §IV-C.
func (d Deviation) ProbWithin(xi float64) float64 {
	return mathx.NormProbWithin(-xi, xi, d.Delta, d.Sigma())
}

// SupAbs returns the symmetric high-confidence bound on |θ̂ⱼ − θ̄ⱼ|:
// |δⱼ| + σⱼ·Φ⁻¹((1+conf)/2). The paper's sup|θ̂ⱼ−θ̄ⱼ| is infinite for a
// Gaussian, so (per §IV-B) the collector fixes a confidence and uses the
// corresponding quantile; HDR4ME's λ* selection consumes this.
func (d Deviation) SupAbs(conf float64) float64 {
	return math.Abs(d.Delta) + mathx.SymmetricQuantile(conf, d.Sigma())
}

// SupAbsAt is SupAbs with the standard-normal quantile z = Φ⁻¹((1+conf)/2)
// already evaluated: |δⱼ| + σⱼ·z. For conf in (0, 1) it equals
// SupAbs(conf) bit for bit, so a caller bounding many dimensions at one
// confidence evaluates the quantile once.
func (d Deviation) SupAbsAt(z float64) float64 {
	return math.Abs(d.Delta) + d.Sigma()*z
}

// Moments is the report-count-free half of the Lemma 2/3 Gaussian: the
// residual bias δⱼ and the per-report variance Σ_z p_z Var(v_z) before
// the division by r. It depends only on the mechanism, the budget and the
// data model, so a collector computes it once and re-weights it by the
// live report count on every read.
type Moments struct {
	Delta float64
	Var   float64
}

// At returns the deviation Gaussian for r reports: δⱼ and Var/r.
func (m Moments) At(r float64) Deviation { return Deviation{Delta: m.Delta, Sigma2: m.Var / r} }

// AtomMoments caches a mechanism's bias δ(v) and variance Var(v) at a
// fixed set of spec atoms under one budget — the expensive half of
// Lemma 3, independent of the atom probabilities.
type AtomMoments struct {
	Bias []float64
	Var  []float64
}

// Mix applies Lemma 3's data mixture over the cached atoms:
// δ = Σ_z p_z δ(v_z) and Σ_z p_z Var(v_z), each a compensated sum in atom
// order. probs must be as long as the atom list.
func (a AtomMoments) Mix(probs []float64) Moments {
	var db, vb mathx.KahanSum
	for z, p := range probs {
		db.Add(p * a.Bias[z])
		vb.Add(p * a.Var[z])
	}
	return Moments{Delta: db.Value(), Var: vb.Value()}
}

// Framework evaluates the §IV framework for one mechanism at a given
// per-dimension budget ε/m and expected report count r = n·m/d.
type Framework struct {
	Mech      ldp.Mechanism
	EpsPerDim float64
	R         float64
}

// Deviation returns the Lemma 2 (unbounded) or Lemma 3 (bounded) Gaussian
// for one dimension. spec may be nil for unbounded mechanisms; bounded
// mechanisms require it and panic otherwise (the framework cannot be
// evaluated without a data model when moments depend on the data).
func (f Framework) Deviation(spec *DataSpec) Deviation { return f.Moments(spec).At(f.R) }

// Moments returns the report-count-free half of Deviation (R is ignored):
// Lemma 2's δ = E[N] and Var[N], or Lemma 3's mixture over spec. spec
// follows the Deviation contract.
func (f Framework) Moments(spec *DataSpec) Moments {
	if !f.Mech.Bounded() {
		// Lemma 2: δ = E[N], σ² = Var[N]/r, independent of the data.
		return Moments{Delta: f.Mech.Bias(0, f.EpsPerDim), Var: f.Mech.Var(0, f.EpsPerDim)}
	}
	if spec == nil {
		panic(fmt.Sprintf("analysis: %s is bounded; Lemma 3 needs a DataSpec", f.Mech.Name()))
	}
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	return f.Atoms(spec.Values).Mix(spec.Probs)
}

// Atoms evaluates the mechanism's bias and variance at each spec value
// under the framework budget (Lemma 3's per-atom moments).
func (f Framework) Atoms(values []float64) AtomMoments {
	a := AtomMoments{Bias: make([]float64, len(values)), Var: make([]float64, len(values))}
	for z, v := range values {
		a.Bias[z] = f.Mech.Bias(v, f.EpsPerDim)
		a.Var[z] = f.Mech.Var(v, f.EpsPerDim)
	}
	return a
}

// WorstCaseDeviation returns the data-free upper envelope of the Lemma 3
// Gaussian: the maximum of Var(t) and |δ(t)| over a fine grid of t ∈ [−1,1].
// It lets a collector who knows nothing about the data pick conservative
// HDR4ME weights.
func (f Framework) WorstCaseDeviation() Deviation {
	const grid = 401
	var maxVar, maxAbsBias float64
	for i := 0; i < grid; i++ {
		t := -1 + 2*float64(i)/float64(grid-1)
		if v := f.Mech.Var(t, f.EpsPerDim); v > maxVar {
			maxVar = v
		}
		if b := math.Abs(f.Mech.Bias(t, f.EpsPerDim)); b > maxAbsBias {
			maxAbsBias = b
		}
	}
	return Deviation{Delta: maxAbsBias, Sigma2: maxVar / f.R}
}
