package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// outcome collects what one workload phase measured and checked.
type outcome struct {
	metrics   map[string]float64
	notes     map[string]float64
	gates     []gateResult
	attempted int64
	failed    int64
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, notes: map[string]float64{}}
}

func (o *outcome) set(name string, v float64)  { o.metrics[name] = v }
func (o *outcome) note(name string, v float64) { o.notes[name] = v }

// ops records attempted operations and how many failed (errored, were
// NACKed or shed, or returned a wrong acknowledgement).
func (o *outcome) ops(attempted, failed int64) {
	o.attempted += attempted
	o.failed += failed
}

// gate records one correctness check.
func (o *outcome) gate(name string, ok bool, format string, a ...any) {
	o.gates = append(o.gates, gateResult{Name: name, OK: ok, Detail: fmt.Sprintf(format, a...)})
}

// absorb folds another phase's checks and failures into o (the untraced
// reference phase of a traced run).
func (o *outcome) absorb(p *outcome) {
	for _, g := range p.gates {
		g.Name = "reference." + g.Name
		o.gates = append(o.gates, g)
	}
	o.ops(p.attempted, p.failed)
}

// phaseFn runs one workload phase and returns its primary cost — the
// end-to-end number tracing overhead is judged on, lower is better.
type phaseFn func(cfg config, o *outcome) (cost float64, err error)

// workloads maps each workload name to its runner.
var workloads = map[string]func(config) (*outcome, error){
	"ingest-e2e":       traced(ingestE2E),
	"ingest-collector": traced(ingestCollector),
	"query-under-load": traced(queryUnderLoad),
	"device-churn":     traced(deviceChurn),
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// traced wraps a phase: an untraced run is the phase alone; a traced run
// first runs it untraced as the reference, then traced, and reports the
// traced cost's excess over the reference as trace.overhead_share.
func traced(p phaseFn) func(config) (*outcome, error) {
	return func(cfg config) (*outcome, error) {
		if !cfg.trace {
			o := newOutcome()
			_, err := p(cfg, o)
			return o, err
		}
		ref := newOutcome()
		refCfg := cfg
		refCfg.trace = false
		base, err := p(refCfg, ref)
		if err != nil {
			return nil, err
		}
		o := newOutcome()
		cost, err := p(cfg, o)
		if err != nil {
			return nil, err
		}
		o.set("trace.overhead_share", cost/base-1)
		o.absorb(ref)
		return o, nil
	}
}

// setupClock times a phase's set-up. The phase keeps the first build;
// an untraced run builds the set-up again after every segment of its
// timed phase, tearing each extra build down at once, and reports the
// median build time as setup_s. Builds spread over the whole run sample
// the shared machine's speed across the run; builds taken back to back
// sampled one moment of it, and their median moved by a quarter between
// sets of runs.
type setupClock[T any] struct {
	cfg   config
	build func(dir string) (T, func(), error)
	times []float64
}

// startSetup builds a phase's set-up once and returns it with its
// teardown and the clock that times the later builds.
func startSetup[T any](cfg config, build func(dir string) (T, func(), error)) (T, func(), *setupClock[T], error) {
	s := &setupClock[T]{cfg: cfg, build: build}
	env, teardown, _, err := s.once()
	return env, teardown, s, err
}

// once times one build in a fresh scratch directory.
func (s *setupClock[T]) once() (T, func(), string, error) {
	var env T
	dir := filepath.Join(s.cfg.dir, fmt.Sprintf("setup-%d", len(s.times)))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return env, nil, dir, err
	}
	runtime.GC()
	t0 := time.Now()
	env, teardown, err := s.build(dir)
	d := time.Since(t0)
	if err != nil {
		if teardown != nil {
			teardown()
		}
		return env, nil, dir, fmt.Errorf("setup: %w", err)
	}
	s.times = append(s.times, d.Seconds())
	return env, teardown, dir, nil
}

// again times one more build and tears it down; a traced run does not
// rebuild.
func (s *setupClock[T]) again() error {
	if s.cfg.trace {
		return nil
	}
	_, teardown, dir, err := s.once()
	if teardown != nil {
		teardown()
	}
	os.RemoveAll(dir)
	return err
}

// record sets setup_s to the median build time.
func (s *setupClock[T]) record(o *outcome) {
	o.set("setup_s", median(s.times))
	o.note("setup_runs", float64(len(s.times)))
}

// procSnap is a point-in-time sample of the process's resource use.
type procSnap struct {
	wall    time.Time
	cpu     time.Duration
	mallocs uint64
	pauseNs uint64
}

func procNow() procSnap {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSnap{
		wall:    time.Now(),
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs,
		pauseNs: ms.PauseTotalNs,
	}
}

// procUse is the resource use of the process over the timed segments of
// a phase.
type procUse struct {
	wall, cpu        time.Duration
	mallocs, pauseNs uint64
}

// add accumulates the use between snapshots a and b.
func (u *procUse) add(a, b procSnap) {
	u.wall += b.wall.Sub(a.wall)
	u.cpu += b.cpu - a.cpu
	u.mallocs += b.mallocs - a.mallocs
	u.pauseNs += b.pauseNs - a.pauseNs
}

// procMetrics reports the process.* rows for use, in which ops
// operations completed.
func procMetrics(o *outcome, u procUse, ops int64) {
	o.set("process.cpu_busy_share", u.cpu.Seconds()/(u.wall.Seconds()*float64(runtime.GOMAXPROCS(0))))
	o.set("process.cpu_us_per_op", float64(u.cpu.Microseconds())/float64(max(ops, 1)))
	o.set("process.allocs_per_op", float64(u.mallocs)/float64(max(ops, 1)))
	o.set("process.gc_pause_ms", float64(u.pauseNs)/1e6)
}

// heapMiB forces two collections (the second also empties the
// sync.Pool victim caches) and returns the live heap in MiB.
func heapMiB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// ms and us convert nanoseconds.
func ms(ns float64) float64 { return ns / 1e6 }
func us(ns float64) float64 { return ns / 1e3 }

// setSeries records a latency series' median in milliseconds as
// name_p50_ms, and notes it with the sample count and the 75th, 90th,
// 95th and 99th percentiles. The median is the only percentile that
// repeated within its bound on the reference machine (see README.md).
func setSeries(o *outcome, name string, s *samples) {
	o.note(name+"_samples", float64(s.len()))
	for _, q := range []float64{0.50, 0.75, 0.90, 0.95, 0.99} {
		v := ms(s.quantile(q))
		o.note(fmt.Sprintf("%s_p%.0f_ms", name, q*100), v)
		if q == 0.50 {
			o.set(name+"_p50_ms", v)
		}
	}
}

// sum adds up xs.
func sum(xs []int64) int64 {
	var t int64
	for _, x := range xs {
		t += x
	}
	return t
}
