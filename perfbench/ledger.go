package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	hdr4me "github.com/hdr4me/hdr4me"
	"github.com/hdr4me/hdr4me/internal/epoch"
	"github.com/hdr4me/hdr4me/internal/est"
	"github.com/hdr4me/hdr4me/internal/transport"
)

// The per-layer ledger: in-process measurements, taken after a traced
// phase's traffic has stopped, of each layer's exported entry points on
// the workload's own inputs. Spans wrap calls into the layer from the
// benchmark's side only; nothing inside the program is instrumented.

// benchBudget is the minimum measuring time of one ledger row; a row
// also runs at least benchRounds rounds and reports their median.
const (
	benchBudget = 60 * time.Millisecond
	benchRounds = 5
)

// bench calls fn, which processes units units per call, once to warm up
// and count allocations, then in timed rounds until both minimums are
// met. It returns the median nanoseconds per unit and allocations per
// unit.
func bench(units int, fn func()) (nsPerUnit, allocsPerUnit float64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	fn()
	runtime.ReadMemStats(&m1)
	allocsPerUnit = float64(m1.Mallocs-m0.Mallocs) / float64(units)
	var per []float64
	start := time.Now()
	for len(per) < benchRounds || time.Since(start) < benchBudget {
		t0 := time.Now()
		fn()
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(units))
	}
	return median(per), allocsPerUnit
}

// pool is a workload's own reports for one query.
type pool struct {
	query string
	reps  []hdr4me.Report
}

// batches cuts each pool into frames of size reports.
func batches(pools []pool, size int) []pool {
	var out []pool
	for _, p := range pools {
		for lo := 0; lo < len(p.reps); lo += size {
			out = append(out, pool{p.query, p.reps[lo:min(lo+size, len(p.reps))]})
		}
	}
	return out
}

func countReports(bs []pool) int {
	n := 0
	for _, b := range bs {
		n += len(b.reps)
	}
	return n
}

// ledgerIn is what the ledger measures: the workload's report pools and
// frame size, its primary query (for the perturbation row), its
// collector (persist rows, in-process reads) and the read-path registry.
type ledgerIn struct {
	cfg     config
	pools   []pool
	batch   int
	primary string
	c       *collector
	reads   *hdr4me.Registry // holds sw256, lap32 and cats (epoch rings)
	ops     []readOp         // the read generator's cycle, for in-process read cost
}

// ledger measures every in-process layer row into o and returns the
// in-process cost of each read op of in.ops in nanoseconds, keyed by
// op kind and query.
func ledger(in ledgerIn, o *outcome) (map[readOp]float64, error) {
	bs := batches(in.pools, in.batch)
	n := countReports(bs)

	// hdr4me: user-side perturbation of the primary query's tuples.
	spec := specs[in.primary]
	tuples := genTuples(spec, in.cfg.sized(2048, 64), hdr4me.NewRNG(subSeed(in.cfg.seed, "ledger-tuples", 0)))
	sess, err := hdr4me.NewFromSpec(spec, hdr4me.WithSeed(subSeed(in.cfg.seed, "ledger-session", 0)))
	if err != nil {
		return nil, err
	}
	var repErr error
	ns, allocs := bench(len(tuples), func() {
		for _, t := range tuples {
			if _, err := sess.Report(t); err != nil {
				repErr = err
			}
		}
	})
	sess.Close()
	if repErr != nil {
		return nil, repErr
	}
	o.note("ledger.hdr4me.report.ns_per_report", ns)
	o.set("hdr4me.report.allocs_per_report", allocs)

	// transport: encode and decode with both codecs.
	for _, codec := range []transport.FrameCodec{transport.CodecV1{}, transport.CodecV2{}} {
		v := fmt.Sprintf("v%d", codec.Version())
		var (
			buf    []byte
			all    []byte
			encErr error
		)
		for _, b := range bs {
			if all, encErr = codec.AppendBatch(all, b.query, 1, b.reps); encErr != nil {
				return nil, encErr
			}
		}
		ns, _ := bench(n, func() {
			for _, b := range bs {
				buf, encErr = codec.AppendBatch(buf[:0], b.query, 1, b.reps)
			}
		})
		o.set("transport.encode_"+v+".ns_per_report", ns)
		o.set("transport.wire_bytes_"+v, float64(len(all))/float64(n))
		var decErr error
		ns, _ = bench(n, func() {
			br := bufio.NewReaderSize(bytes.NewReader(all), 1<<16)
			for range bs {
				if _, _, _, err := codec.DecodeBatch(br, true); err != nil {
					decErr = err
				}
			}
		})
		if decErr != nil {
			return nil, fmt.Errorf("decode %s: %w", v, decErr)
		}
		o.set("transport.decode_"+v+".ns_per_report", ns)
	}

	// est/epoch: accumulation through the lanes of one-shot and ring
	// queries, as rows (BATCH) and columns (CBATCH).
	type colBatch struct {
		n, nd, nv int
		dims      []uint32
		vals      []float64
	}
	cols := make([]colBatch, len(bs))
	for i, b := range bs {
		cb := colBatch{n: len(b.reps), nd: len(b.reps[0].Dims), nv: len(b.reps[0].Values)}
		for _, r := range b.reps {
			cb.dims = append(cb.dims, r.Dims...)
			cb.vals = append(cb.vals, r.Values...)
		}
		cols[i] = cb
	}
	for _, ring := range []bool{false, true} {
		reg, _, err := newRegistry(ring, hdr4me.EpochConfig{Retain: 1 << 12})
		if err != nil {
			return nil, err
		}
		lanes := map[string]est.Lane{}
		for _, p := range in.pools {
			q, err := reg.Open(specs[p.query])
			if err != nil {
				return nil, err
			}
			lanes[p.query] = q.AcquireLane()
		}
		kind := "oneshot"
		if ring {
			kind = "ring"
		}
		var addErr error
		ns, allocs := bench(n, func() {
			for _, b := range bs {
				if _, err := lanes[b.query].AddReports(b.reps); err != nil {
					addErr = err
				}
			}
		})
		o.set("est.accumulate."+kind+".rows.ns_per_report", ns)
		o.set("est.accumulate."+kind+".rows.allocs_per_report", allocs)
		ns, allocs = bench(n, func() {
			for i, b := range bs {
				cb := cols[i]
				if _, err := est.AddColumns(lanes[b.query], cb.n, cb.nd, cb.nv, cb.dims, cb.vals); err != nil {
					addErr = err
				}
			}
		})
		if addErr != nil {
			return nil, fmt.Errorf("accumulate %s: %w", kind, addErr)
		}
		o.set("est.accumulate."+kind+".cols.ns_per_report", ns)
		o.set("est.accumulate."+kind+".cols.allocs_per_report", allocs)
		if ring {
			// epoch: rotation of a ring holding one frame of fresh reports.
			var rot samples
			for i := range in.cfg.sized(64, 8) {
				b := bs[i%len(bs)]
				lanes[b.query].AddReports(b.reps)
				r := reg.Get(b.query).Estimator().(*epoch.Ring)
				t0 := time.Now()
				r.Rotate()
				rot.add(time.Since(t0))
			}
			o.set("epoch.rotate.us", us(rot.quantile(0.5)))
		}
	}

	// recal/est/epoch: the read path on sw256, lap32 and cats.
	for _, name := range []string{"sw256", "lap32", "cats"} {
		en := in.reads.Get(name).Estimator().(est.Enhancer)
		ns, _ := bench(1, func() { en.Enhanced() })
		o.set("recal.enhanced."+name+".us", us(ns))
	}
	sw := in.reads.Get("sw256").Estimator().(*epoch.Ring)
	ns, _ = bench(1, func() { sw.Estimate() })
	o.set("est.estimate.us", us(ns))
	ns, _ = bench(1, func() { sw.WindowEstimate(readWindow) })
	o.set("epoch.window.us", us(ns))
	ns, _ = bench(1, func() { sw.DecayedEstimate(readGamma) })
	o.set("epoch.decayed.us", us(ns))

	// The same reads in-process on the queries the read generator hit, to
	// split its round trips into collector time and transport time.
	inproc := map[readOp]float64{}
	for _, op := range in.ops {
		if _, done := inproc[op]; done {
			continue
		}
		e := in.c.reg.Get(op.query).Estimator()
		var fn func()
		switch op.kind {
		case opEnhanced:
			fn = func() { e.(est.Enhancer).Enhanced() }
		case opEstimate:
			fn = func() { e.Estimate() }
		case opWindow:
			fn = func() { e.(*epoch.Ring).WindowEstimate(readWindow) }
		case opDecay:
			fn = func() { e.(*epoch.Ring).DecayedEstimate(readGamma) }
		}
		inproc[op], _ = bench(1, fn)
	}

	// persist: checkpoint the workload's collector and restore it.
	dir := filepath.Join(in.cfg.dir, "ledger-checkpoint")
	var save, restore []float64
	for range 5 {
		t0 := time.Now()
		if err := hdr4me.SaveCollectorState(dir, in.c.reg, in.c.acct); err != nil {
			return nil, err
		}
		save = append(save, time.Since(t0).Seconds()*1e3)
		reg, acct, err := newRegistry(in.c.epochs, in.c.cfg)
		if err != nil {
			return nil, err
		}
		t0 = time.Now()
		if _, err := hdr4me.RestoreCollectorState(dir, reg, acct); err != nil {
			return nil, err
		}
		restore = append(restore, time.Since(t0).Seconds()*1e3)
	}
	size, err := checkpointBytes(dir)
	if err != nil {
		return nil, err
	}
	o.set("persist.save.ms", median(save))
	o.set("persist.restore.ms", median(restore))
	o.set("persist.checkpoint_bytes", float64(size))
	return inproc, os.RemoveAll(dir)
}

// readRows reports the read generator's transport rows: the median round
// trip left after subtracting each request's in-process cost, and the
// share of mean latency the in-process read path does not explain.
func readRows(o *outcome, st *readStats, inproc map[readOp]float64) {
	var rest samples
	var lat, explained float64
	for i, rtt := range st.rtt {
		rest.ns = append(rest.ns, rtt-int64(inproc[st.ops[i]]))
		explained += inproc[st.ops[i]]
	}
	for _, s := range [][]int64{st.enhanced.ns, st.read.ns} {
		lat += float64(sum(s))
	}
	o.set("transport.query_rtt_us", us(rest.quantile(0.5)))
	o.note("read.unexplained_share", 1-explained/lat)
}

// deviceRows reports the connection-handling rows of a device series.
func deviceRows(o *outcome, ds *deviceStats, sessionsLive int64) {
	o.set("transport.dial.us", us(ds.dial.quantile(0.5)))
	o.set("transport.hello.us.p50", us(ds.hello.quantile(0.5)))
	o.set("transport.hello.us.p99", us(ds.hello.quantile(0.99)))
	o.set("transport.hello.us.first_tenth", us(ds.hello.tail(0, 0.1).quantile(0.5)))
	o.set("transport.hello.us.last_tenth", us(ds.hello.tail(0.9, 1).quantile(0.5)))
	o.set("transport.sessions_live", float64(sessionsLive))
}

// serverRows reports the collector's own counters.
func serverRows(o *outcome, st hdr4me.CollectorStats) {
	o.set("transport.server.cbatch_frames", float64(st.CBatches))
	o.set("transport.server.batches_shed", float64(st.BatchesShed))
	o.set("transport.server.conns_shed", float64(st.ConnsShed))
	o.set("transport.server.sessions_opened", float64(st.SessionsOpened))
	o.set("transport.server.deadlines_tripped", float64(st.DeadlinesTripped))
}
