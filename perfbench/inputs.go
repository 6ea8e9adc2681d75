package main

import (
	"fmt"
	"time"

	hdr4me "github.com/hdr4me/hdr4me"
	"github.com/hdr4me/hdr4me/internal/transport"
)

// The named queries the workloads register. Every input the benchmark
// feeds the program — raw tuples, perturbed reports, encoded frames and
// open-loop schedules — is derived from these specs and the --seed value.
var specs = map[string]hdr4me.QuerySpec{
	// ingest-e2e and query-under-load: the paper's high-d, biased
	// mechanism, where ENHANCED is most expensive (finding (c)).
	"sw256": {Name: "sw256", Kind: hdr4me.KindMean, Mech: "squarewave", Eps: 4, D: 256, M: 8},
	// ingest-collector: one mean and one frequency query on an epoch
	// registry.
	"pw64": {Name: "pw64", Kind: hdr4me.KindMean, Mech: "piecewise", Eps: 2, D: 64, M: 4},
	"f8":   {Name: "f8", Kind: hdr4me.KindFreq, Mech: "piecewise", Eps: 2, Cards: []int{8, 8, 8, 8, 8, 8, 8, 8}, M: 2},
	// query-under-load: an unbounded mechanism and a frequency query
	// beside sw256.
	"lap32": {Name: "lap32", Kind: hdr4me.KindMean, Mech: "laplace", Eps: 2, D: 32, M: 4},
	"cats":  {Name: "cats", Kind: hdr4me.KindFreq, Mech: "piecewise", Eps: 2, Cards: []int{8, 8, 8, 8}, M: 2},
	// device-churn: small reports, so connection handling dominates.
	"pw16": {Name: "pw16", Kind: hdr4me.KindMean, Mech: "piecewise", Eps: 2, D: 16, M: 2},
}

// totalEps is the per-user budget of every accountant: enough for every
// query a workload registers.
const totalEps = 64

// Seed streams, so no two generated inputs share random numbers.
const (
	streamTuples  = 1
	streamReports = 2
)

// tupleValues is the discrete value grid of a mean-query dimension: each
// dimension draws uniformly from three neighbouring grid points. One
// dimension in 32 is "hot" (centred at 0.4), the rest centre on 0, so
// the true mean is sparse — the regime HDR4ME re-calibration targets.
func tupleValues(j int) [3]float64 {
	if j%32 == 0 {
		return [3]float64{0.2, 0.4, 0.6}
	}
	return [3]float64{-0.2, 0, 0.2}
}

// genTuples draws n raw tuples for spec from rng.
func genTuples(spec hdr4me.QuerySpec, n int, rng *hdr4me.RNG) []hdr4me.Tuple {
	out := make([]hdr4me.Tuple, n)
	for i := range out {
		if spec.Kind == hdr4me.KindFreq {
			cats := make([]int, len(spec.Cards))
			for j, c := range spec.Cards {
				cats[j] = rng.IntN(c)
			}
			out[i] = hdr4me.Tuple{Cats: cats}
			continue
		}
		vals := make([]float64, spec.D)
		for j := range vals {
			vals[j] = tupleValues(j)[rng.IntN(3)]
		}
		out[i] = hdr4me.Tuple{Values: vals}
	}
	return out
}

// trueMean is the per-dimension mean of the numeric tuples ts[i%len(ts)]
// for i < n — what a client cycling through ts has reported after n
// reports.
func trueMean(ts []hdr4me.Tuple, n int64) []float64 {
	d := len(ts[0].Values)
	sum := make([]float64, d)
	full, rem := n/int64(len(ts)), int(n%int64(len(ts)))
	for i, t := range ts {
		w := float64(full)
		if i < rem {
			w++
		}
		for j, v := range t.Values {
			sum[j] += w * v
		}
	}
	for j := range sum {
		sum[j] /= float64(n)
	}
	return sum
}

// perturb turns tuples into wire reports through the user-side Session —
// the hdr4me layer — with a session seeded from seed. It returns the
// reports and the time spent in Session.Report, the setup-side sample of
// hdr4me.report.ns_per_report.
func perturb(spec hdr4me.QuerySpec, ts []hdr4me.Tuple, seed uint64, sp *span) ([]hdr4me.Report, error) {
	sess, err := hdr4me.NewFromSpec(spec, hdr4me.WithSeed(seed))
	if err != nil {
		return nil, fmt.Errorf("session for %s: %w", spec.Name, err)
	}
	defer sess.Close()
	reps := make([]hdr4me.Report, len(ts))
	for i, t := range ts {
		t0 := time.Now()
		rep, err := sess.Report(t)
		if sp != nil {
			sp.add(1, time.Since(t0))
		}
		if err != nil {
			return nil, fmt.Errorf("perturb %s: %w", spec.Name, err)
		}
		reps[i] = rep
	}
	return reps, nil
}

// genReports is genTuples followed by perturb.
func genReports(spec hdr4me.QuerySpec, n int, seed uint64, sp *span) ([]hdr4me.Report, error) {
	rng := hdr4me.NewRNG(seed).Child(streamTuples)
	return perturb(spec, genTuples(spec, n, rng), hdr4me.NewRNG(seed).Child(streamReports).Seed(), sp)
}

// frame is one pre-encoded batch frame and what it carries.
type frame struct {
	query string
	n     int
	enc   []byte
}

// encodeFrames cuts reps into batches of size and encodes each with codec
// under the query's in-frame (v2) or SELECT (v1) route, unsequenced.
func encodeFrames(codec transport.FrameCodec, query string, reps []hdr4me.Report, size int) ([]frame, error) {
	var out []frame
	for lo := 0; lo < len(reps); lo += size {
		batch := reps[lo:min(lo+size, len(reps))]
		enc, err := codec.AppendBatch(nil, query, 0, batch)
		if err != nil {
			return nil, fmt.Errorf("encode %s: %w", query, err)
		}
		out = append(out, frame{query: query, n: len(batch), enc: enc})
	}
	return out, nil
}

// interleave merges frame lists round-robin, so a cycled pool alternates
// queries.
func interleave(lists ...[]frame) []frame {
	var out []frame
	for i := 0; ; i++ {
		added := false
		for _, l := range lists {
			if i < len(l) {
				out = append(out, l[i])
				added = true
			}
		}
		if !added {
			return out
		}
	}
}
