package main

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"testing"
)

// benchmarkFile is the subset of ../BENCHMARK.json the self-test checks
// the program against.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

// TestSelfTest runs every workload once, untraced and traced, at a tiny
// size, and checks each emits exactly the metrics BENCHMARK.json names,
// with their units and finite values, and that every gate passes. The
// program may run workloads BENCHMARK.json does not list; it must run
// every one it lists.
func TestSelfTest(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bm benchmarkFile
	if err := json.Unmarshal(raw, &bm); err != nil {
		t.Fatal(err)
	}
	names := workloadNames()
	for _, w := range bm.Workloads {
		if !slices.Contains(names, w.Name) {
			t.Fatalf("BENCHMARK.json workload %s is not one the program runs (%v)", w.Name, names)
		}
	}
	for _, trace := range []bool{false, true} {
		want := map[string]string{}
		defs, listed := e2eMetrics, bm.EndToEnd
		if trace {
			defs, listed = layerMetrics, bm.PerLayer
		}
		for _, m := range listed {
			want[m.Name] = m.Unit
		}
		if len(want) != len(defs) {
			t.Fatalf("trace=%v: BENCHMARK.json lists %d metrics, program defines %d", trace, len(want), len(defs))
		}
		for _, d := range defs {
			if want[d.name] != d.unit {
				t.Fatalf("trace=%v: %s has unit %q in the program, %q in BENCHMARK.json", trace, d.name, d.unit, want[d.name])
			}
		}
		for _, w := range names {
			cfg := config{workload: w, seed: 7, seconds: 0.3, trace: trace, scale: 0.02, dir: t.TempDir()}
			res, rep, err := execute(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			for _, g := range rep.Gates {
				if !g.OK {
					t.Errorf("%s trace=%v: gate %s failed: %s", w, trace, g.Name, g.Detail)
				}
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics emitted, want %d", w, trace, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				v, ok := res.Metrics[name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: %s not emitted", w, trace, name)
				case v.Unit != unit:
					t.Errorf("%s trace=%v: %s unit %q, want %q", w, trace, name, v.Unit, unit)
				case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
					t.Errorf("%s trace=%v: %s = %v", w, trace, name, v.Value)
				}
			}
		}
	}
}
