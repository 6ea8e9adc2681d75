// Command perfbench is the collector's benchmark of record. It runs one
// seeded workload against an in-process HDR4ME collector served over
// 127.0.0.1 TCP, checks the collector's outputs, and prints one JSON
// result line: the end-to-end metrics (--trace 0) or the per-layer
// ledger (--trace 1). See README.md for the workloads, the metrics and
// which layer row is expected to move which end-to-end number.
//
//	perfbench --workload ingest-e2e --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// e2eMetrics are printed by every untraced run, in this order.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"ingest_reports_per_s", "1/s"},
	{"wire_bytes_per_report", "B"},
	{"enhanced_p50_ms", "ms"},
	{"read_p50_ms", "ms"},
	{"device_p50_ms", "ms"},
	{"devices_per_s", "1/s"},
	{"heap_mb", "MiB"},
}

// layerMetrics are printed by every traced run, in this order.
var layerMetrics = []metricDef{
	{"hdr4me.report.ns_per_report", "ns"},
	{"hdr4me.report.allocs_per_report", "count"},
	{"transport.buffered_add.ns_per_report", "ns"},
	{"transport.encode_v1.ns_per_report", "ns"},
	{"transport.encode_v2.ns_per_report", "ns"},
	{"transport.wire_bytes_v1", "B"},
	{"transport.wire_bytes_v2", "B"},
	{"transport.decode_v1.ns_per_report", "ns"},
	{"transport.decode_v2.ns_per_report", "ns"},
	{"est.accumulate.oneshot.rows.ns_per_report", "ns"},
	{"est.accumulate.oneshot.rows.allocs_per_report", "count"},
	{"est.accumulate.oneshot.cols.ns_per_report", "ns"},
	{"est.accumulate.oneshot.cols.allocs_per_report", "count"},
	{"est.accumulate.ring.rows.ns_per_report", "ns"},
	{"est.accumulate.ring.rows.allocs_per_report", "count"},
	{"est.accumulate.ring.cols.ns_per_report", "ns"},
	{"est.accumulate.ring.cols.allocs_per_report", "count"},
	{"transport.batch_ack_us.p50", "us"},
	{"transport.batch_ack_us.p99", "us"},
	{"transport.server.cbatch_frames", "count"},
	{"transport.server.batches_shed", "count"},
	{"transport.server.conns_shed", "count"},
	{"transport.server.sessions_opened", "count"},
	{"transport.server.deadlines_tripped", "count"},
	{"recal.enhanced.sw256.us", "us"},
	{"recal.enhanced.lap32.us", "us"},
	{"recal.enhanced.cats.us", "us"},
	{"est.estimate.us", "us"},
	{"epoch.window.us", "us"},
	{"epoch.decayed.us", "us"},
	{"transport.query_rtt_us", "us"},
	{"epoch.rotate.us", "us"},
	{"epoch.rotations", "count"},
	{"persist.save.ms", "ms"},
	{"persist.checkpoint_bytes", "B"},
	{"persist.restore.ms", "ms"},
	{"transport.dial.us", "us"},
	{"transport.hello.us.p50", "us"},
	{"transport.hello.us.p99", "us"},
	{"transport.hello.us.first_tenth", "us"},
	{"transport.hello.us.last_tenth", "us"},
	{"transport.sessions_live", "count"},
	{"process.cpu_busy_share", "share"},
	{"process.cpu_us_per_op", "us"},
	{"process.allocs_per_op", "count"},
	{"process.gc_pause_ms", "ms"},
	{"trace.unexplained_share", "share"},
	{"trace.overhead_share", "share"},
	{"gen.late_ms.p99", "ms"},
}

// config is one invocation.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// scale multiplies every fixed-size series (probe requests, devices,
	// pools); 1 for the benchmark of record, small for the self-test.
	scale float64
	dir   string // scratch directory inside the checkout
}

// sized scales a series length, keeping at least min elements.
func (c config) sized(n, least int) int { return max(int(float64(n)*c.scale), least) }

// result is what one run prints as its last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// gateResult is one correctness check of the program's outputs.
type gateResult struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// report is the run's full record, printed before the result line: the
// machine fingerprint, every gate, and the workload's own notes (sample
// counts, failure ratio).
type report struct {
	Workload    string             `json:"workload"`
	Seed        uint64             `json:"seed"`
	Seconds     float64            `json:"seconds"`
	Trace       bool               `json:"trace"`
	Fingerprint map[string]any     `json:"fingerprint"`
	Gates       []gateResult       `json:"gates"`
	Notes       map[string]float64 `json:"notes"`
	FailedRatio float64            `json:"failed_ratio"`
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed every generated input derives from")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the timed phase")
	trace := flag.Int("trace", 0, "1: traced run printing the per-layer metrics")
	flag.Parse()
	cfg.trace = *trace == 1
	cfg.scale = 1
	if err := runMain(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// runMain runs one workload in a scratch directory under .bench_build
// and prints its report and result lines.
func runMain(cfg config) error {
	if cfg.seconds <= 0 {
		return errors.New("--seconds must be positive")
	}
	base, err := filepath.Abs(".bench_build")
	if err != nil {
		return err
	}
	cfg.dir = filepath.Join(base, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(cfg.dir)
	res, rep, err := execute(cfg)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]report{"report": rep}); err != nil {
		return err
	}
	return enc.Encode(res)
}

// execute runs the workload and assembles the result.
func execute(cfg config) (result, report, error) {
	w, ok := workloads[cfg.workload]
	if !ok {
		return result{}, report{}, fmt.Errorf("unknown workload %q (have %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	r, err := w(cfg)
	if err != nil {
		return result{}, report{}, err
	}
	defs := e2eMetrics
	if cfg.trace {
		defs = layerMetrics
	}
	res := result{Correct: true, Attempted: r.attempted + int64(len(r.gates)), Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, g := range r.gates {
		if !g.OK {
			res.Correct = false
			res.Failed++
		}
	}
	if r.failed > 0 {
		res.Correct = false
	}
	for _, d := range defs {
		v, ok := r.metrics[d.name]
		if !ok {
			return result{}, report{}, fmt.Errorf("workload %s did not measure %s", cfg.workload, d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	rep := report{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Fingerprint: fingerprint(), Gates: r.gates, Notes: r.notes,
		FailedRatio: float64(res.Failed) / float64(res.Attempted),
	}
	return res, rep, nil
}

// fingerprint identifies the machine a result came from, so numbers are
// only compared between runs on the same one.
func fingerprint() map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu_model":  cpuModel(),
		"go_version": runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"network":    "loopback",
	}
}

// cpuModel reads the CPU model name from /proc/cpuinfo ("unknown"
// elsewhere).
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
