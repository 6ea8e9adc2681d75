package main

import (
	"bytes"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	hdr4me "github.com/hdr4me/hdr4me"
	"github.com/hdr4me/hdr4me/internal/est"
	"github.com/hdr4me/hdr4me/internal/transport"
)

// Sizes of the fixed series. Each is multiplied by config.scale.
const (
	// probeEnhanced is the ENHANCED count of a read probe series and
	// probeDevices the device count of a device probe series: 20 beyond
	// the 99th percentile.
	probeEnhanced = 2000
	probeDevices  = 2000
	// clients is the closed-loop concurrency of ingest-e2e and of device
	// series: one load-generating connection, which leaves the other core
	// of the 2-vCPU reference machine to the collector. Two clients on two
	// cores measured the scheduler: their throughput moved twice as much
	// between runs.
	clients = 1
	// frameReports is the batch size of pre-encoded frames.
	frameReports = 1024
	// e2eBatch is the BufferedClient's default batch size, which
	// ingest-e2e keeps.
	e2eBatch = 256
	// churnDevices is device-churn's device count, fixed per run whatever
	// the collector's speed, so the session-table growth it measures is
	// the same on every run (about ten seconds of churn on the reference
	// machine; the cost per device grows with the devices before it, so
	// the count does not scale with --seconds).
	churnDevices = 18000
)

// segments is how many slices a workload's timed phase is cut into. Each
// slice of the workload's own load is followed by one slice of its probe
// series, so throughput (a median over slices) and the probe series
// sample the machine across the whole run instead of one stretch of it:
// this shared 2-vCPU machine jumps between speed regimes within seconds.
const segments = 20

// settle is the pause between a load segment and the probe slice after
// it.
const settle = 50 * time.Millisecond

// probeQuery is the query device probes report to: small reports, kept
// apart from the workload's own queries so its gates stay exact.
const probeQuery = "pw16"

// sessionsLive is the number of replay sessions the collector holds: no
// run outlives the default 2-minute session TTL, so no session is swept
// and every session opened is still live.
func sessionsLive(st hdr4me.CollectorStats) int64 { return int64(st.SessionsOpened) }

// statsGate checks the collector's failure counters are clean and its
// session and CBATCH counters match what the clients sent, notes how
// many connection errors the server logged, and returns the counters.
func statsGate(o *outcome, c *collector, sessions, cbatches int64) hdr4me.CollectorStats {
	st := c.srv.Stats()
	o.note("server_logged_errors", float64(c.logs.Load()))
	o.gate("server_stats", st.BatchesShed == 0 && st.ConnsShed == 0 && st.DeadlinesTripped == 0 &&
		int64(st.SessionsOpened) == sessions && int64(st.CBatches) == cbatches,
		"shed %d batches, %d conns, %d deadlines; sessions %d (sent %d); cbatch frames %d (sent %d)",
		st.BatchesShed, st.ConnsShed, st.DeadlinesTripped, st.SessionsOpened, sessions, st.CBatches, cbatches)
	return st
}

// countsGate checks a query's per-dimension counts add up to base plus
// its accepted reports times the dimensions each report samples.
func countsGate(o *outcome, c *collector, query string, base, accepted int64) {
	got, want := c.totalCounts(query), base+accepted*int64(specs[query].M)
	o.gate("counts."+query, got == want, "per-dimension counts sum to %d, want %d", got, want)
}

// probes runs a workload's probe series in slices between its load
// segments: a closed-loop read series on the workload's own queries and
// a device series on probeQuery, for the end-to-end metrics the
// workload's own load does not produce. Both are closed loops: at the
// probes' low load an open loop mostly measures the idle machine's
// wake-up latency, which repeated worse between runs.
type probes struct {
	c       *collector
	readOps []readOp // nil: no read probe
	nReads  int
	reads   *readStats
	devReps []hdr4me.Report // nil: no device probe
	nDev    int
	devs    *deviceStats
	devRate []float64 // devices per second of each slice
	wrote   atomic.Int64
}

// newProbes sets up the probe series: reads cycling through readOps and
// devices reporting devReps (either may be nil).
func newProbes(cfg config, c *collector, readOps []readOp, devReps []hdr4me.Report) *probes {
	p := &probes{c: c, readOps: readOps, devReps: devReps, reads: &readStats{}}
	if readOps != nil {
		enh := 0
		for _, op := range readOps {
			if op.kind == opEnhanced {
				enh++
			}
		}
		p.nReads = cfg.sized(probeEnhanced, 2*segments) * len(readOps) / enh
	}
	if devReps != nil {
		p.nDev = cfg.sized(probeDevices, 2*segments)
		p.devs = newDeviceStats(p.nDev)
	}
	return p
}

// slice runs slice k of each probe series. It first collects the
// garbage the load segment left and lets the machine settle, so neither a
// collection cycle started by the load nor its aftermath runs through the
// probe.
func (p *probes) slice(k int) error {
	runtime.GC()
	time.Sleep(settle)
	if p.readOps != nil {
		n := (k+1)*p.nReads/segments - k*p.nReads/segments
		st, err := readSeries(p.c.addr, p.readOps, n, 0, 0)
		if err != nil {
			return err
		}
		p.reads.merge(st)
	}
	if p.devReps != nil {
		lo, hi := k*p.nDev/segments, (k+1)*p.nDev/segments
		t0 := time.Now()
		runDevices(p.c.addr, probeQuery, p.devReps, lo, hi, clients, &p.wrote, p.devs)
		p.devRate = append(p.devRate, float64(hi-lo)/time.Since(t0).Seconds())
	}
	return nil
}

// record sets the probes' end-to-end metrics and gates.
func (p *probes) record(o *outcome) {
	if p.readOps != nil {
		readMetrics(o, p.reads)
	}
	if p.devReps != nil {
		deviceMetrics(o, p.devs, median(p.devRate))
		countsGate(o, p.c, probeQuery, 0, p.devs.accepted.Load())
	}
}

// deviceMetrics sets the device metrics of a device series and the
// rows its spans give.
func deviceMetrics(o *outcome, ds *deviceStats, perSecond float64) {
	n := ds.total.len()
	setSeries(o, "device", &ds.total)
	o.set("devices_per_s", perSecond)
	o.ops(int64(n), ds.failed.Load())
	o.set("transport.buffered_add.ns_per_report", float64(sum(ds.hello.ns))/float64(n))
	o.set("transport.batch_ack_us.p50", us(ds.ack.quantile(0.5)))
	o.set("transport.batch_ack_us.p99", us(ds.ack.quantile(0.99)))
}

func readMetrics(o *outcome, st *readStats) {
	setSeries(o, "enhanced", &st.enhanced)
	setSeries(o, "read", &st.read)
	o.set("gen.late_ms.p99", ms(st.late.quantile(0.99)))
	o.ops(st.attempted, st.failed)
}

// segmentTime is the length of one segment of the timed phase.
func segmentTime(cfg config) time.Duration {
	return time.Duration(cfg.seconds * float64(time.Second) / segments)
}

// ---- ingest-e2e ---------------------------------------------------------------

type e2eEnv struct {
	c       *collector
	tuples  []hdr4me.Tuple
	devReps []hdr4me.Report
}

// e2eClient is one closed-loop device-side client of ingest-e2e.
type e2eClient struct {
	sess            *hdr4me.Session
	b               *transport.BufferedClient
	pool            []hdr4me.Tuple
	sent, frames    int64
	err             error
	reportSp, addSp span
}

// run perturbs and adds reports until deadline, then flushes, so each
// segment ends with every batch shipped and acknowledged.
func (k *e2eClient) run(deadline time.Time, traced bool) {
	start := k.sent
	for j := 0; k.err == nil; j++ {
		if j%64 == 0 && time.Now().After(deadline) {
			break
		}
		t := k.pool[k.sent%int64(len(k.pool))]
		t0 := time.Now()
		rep, err := k.sess.Report(t)
		var t1 time.Time
		if traced {
			t1 = time.Now()
		}
		if err == nil {
			err = k.b.Add(rep)
		}
		if traced {
			k.reportSp.add(1, t1.Sub(t0))
			k.addSp.add(1, time.Since(t1))
		}
		if err != nil {
			k.err = err
			break
		}
		k.sent++
	}
	if err := k.b.Flush(); k.err == nil {
		k.err = err
	}
	k.frames += (k.sent - start + e2eBatch - 1) / e2eBatch
}

// ingestE2E: seeded raw tuples → Session.Report (SquareWave d=256 m=8)
// → BufferedClient (protocol v2, replay session: sequenced CBATCH) →
// one-shot registry query, from one closed-loop client.
func ingestE2E(cfg config, o *outcome) (float64, error) {
	spec := specs["sw256"]
	env, teardown, sc, err := startSetup(cfg, func(dir string) (*e2eEnv, func(), error) {
		c, err := startCollector(filepath.Join(dir, "ckpt"), false, hdr4me.EpochConfig{}, nil, nil, "sw256", probeQuery)
		if err != nil {
			return nil, nil, err
		}
		env := &e2eEnv{c: c}
		env.tuples = genTuples(spec, cfg.sized(1024, 64), hdr4me.NewRNG(subSeed(cfg.seed, "e2e-tuples", 0)))
		env.devReps, err = genReports(specs[probeQuery], cfg.sized(1024, 16), subSeed(cfg.seed, "probe-devices", 0), nil)
		return env, c.close, err
	})
	if err != nil {
		return 0, err
	}
	defer teardown()
	c := env.c

	var wrote atomic.Int64
	sess, err := hdr4me.NewFromSpec(spec, hdr4me.WithSeed(subSeed(cfg.seed, "e2e-session", 0)))
	if err != nil {
		return 0, err
	}
	defer sess.Close()
	b, err := bufferedClient(c.addr, "sw256", e2eBatch, &wrote)
	if err != nil {
		return 0, err
	}
	cl := &e2eClient{sess: sess, b: b, pool: env.tuples}
	probe := newProbes(cfg, c, readCycle([]int{opEnhanced, opEstimate}, "sw256"), env.devReps)
	var (
		use   procUse
		rates []float64
	)
	for k := range segments {
		before := cl.sent
		a := procNow()
		cl.run(a.wall.Add(segmentTime(cfg)), cfg.trace)
		b := procNow()
		use.add(a, b)
		rates = append(rates, float64(cl.sent-before)/b.wall.Sub(a.wall).Seconds())
		if err := sc.again(); err != nil {
			return 0, err
		}
		if err := probe.slice(k); err != nil {
			return 0, err
		}
	}

	if err := cl.b.Close(); cl.err == nil {
		cl.err = err
	}
	sent, accepted := cl.sent, cl.b.Accepted()
	o.gate("acks.client", cl.err == nil && accepted == sent, "sent %d, acked %d, error %v", sent, accepted, cl.err)
	o.ops(sent, sent-accepted)
	o.set("ingest_reports_per_s", median(rates))
	o.set("wire_bytes_per_report", float64(wrote.Load())/float64(sent))
	o.set("heap_mb", heapMiB())
	o.note("reports", float64(accepted))
	procMetrics(o, use, accepted)
	probe.record(o)
	sc.record(o)
	countsGate(o, c, "sw256", 0, accepted)
	st := statsGate(o, c, 1+int64(probe.nDev), cl.frames+int64(probe.nDev))
	mseGate(o, c, env.tuples, sent)

	cost := 1e9 / o.metrics["ingest_reports_per_s"]
	if !cfg.trace {
		return cost, nil
	}
	serverRows(o, st)
	deviceRows(o, probe.devs, sessionsLive(st))
	o.set("epoch.rotations", float64(c.rotations()))
	o.set("hdr4me.report.ns_per_report", cl.reportSp.perOp())
	o.set("transport.buffered_add.ns_per_report", cl.addSp.perOp())
	reads, err := readRegistry(cfg)
	if err != nil {
		return 0, err
	}
	ledgerReps, err := perturb(spec, env.tuples, subSeed(cfg.seed, "e2e-ledger", 0), nil)
	if err != nil {
		return 0, err
	}
	inproc, err := ledger(ledgerIn{cfg: cfg, pools: []pool{{"sw256", ledgerReps}}, batch: e2eBatch, primary: "sw256",
		c: c, reads: reads.reg, ops: probe.reads.ops}, o)
	if err != nil {
		return 0, err
	}
	readRows(o, probe.reads, inproc)
	// Core time per report against the in-process layers on its path:
	// perturbation, CBATCH encode, one-shot column accumulation.
	m := o.metrics
	explained := o.notes["ledger.hdr4me.report.ns_per_report"] + m["transport.encode_v2.ns_per_report"] +
		m["est.accumulate.oneshot.cols.ns_per_report"]
	unexplained(o, use.wall, accepted, explained)
	return cost, nil
}

// unexplained sets trace.unexplained_share: the share of the core time
// per operation (wall × GOMAXPROCS / ops) that the in-process layer self
// times leave unexplained — socket, syscalls, scheduling, idle cores, and
// the collector's frame decode, whose exported form (FrameCodec.
// DecodeBatch) is the allocating reference decoder rather than the
// server's own and so is left out of the sum.
func unexplained(o *outcome, wall time.Duration, ops int64, explainedNs float64) {
	core := float64(wall.Nanoseconds()) * float64(runtime.GOMAXPROCS(0)) / float64(ops)
	o.set("trace.unexplained_share", 1-explainedNs/core)
}

// mseGate checks the naive estimate against the §IV framework: the
// measured MSE over the d dimensions must lie within mseTolerance of
// Σⱼ(δⱼ²+σⱼ²)/d, with δⱼ, σⱼ² from Framework.Deviation at each
// dimension's realized report count and value distribution.
func mseGate(o *outcome, c *collector, tuples []hdr4me.Tuple, sent int64) {
	spec := specs["sw256"]
	q := c.reg.Get("sw256").Estimator()
	estm, counts := q.Estimate(), q.Counts()
	truth := trueMean(tuples, sent)
	var measured, predicted float64
	col := make([]float64, len(tuples))
	for j := range estm {
		measured += (estm[j] - truth[j]) * (estm[j] - truth[j])
		for i, t := range tuples {
			col[i] = t.Values[j]
		}
		ds := hdr4me.SpecFromCounts(col)
		dev := hdr4me.NewFramework(hdr4me.SquareWave(), spec.Eps/float64(spec.M), float64(counts[j])).Deviation(&ds)
		predicted += dev.Delta*dev.Delta + dev.Sigma2
	}
	measured /= float64(len(estm))
	predicted /= float64(len(estm))
	ratio := measured / predicted
	o.note("naive_mse", measured)
	o.note("framework_mse", predicted)
	o.gate("framework_mse", math.Abs(ratio-1) <= mseTolerance,
		"naive MSE %.4g vs framework prediction %.4g (ratio %.3f, tolerance ±%.2f)", measured, predicted, ratio, mseTolerance)
}

// mseTolerance bounds |measured/predicted − 1| for the framework gate.
const mseTolerance = 0.25

// ---- ingest-collector ---------------------------------------------------------

type collEnv struct {
	c        *collector
	v1, v2   []frame
	devReps  []hdr4me.Report
	pools    []pool
	reportSp span
}

// ingestEvery is ingest-collector's count-based rotation trigger.
const ingestEvery = 1 << 16

// pipe is one pipelining raw connection of ingest-collector.
type pipe struct {
	rc         *rawConn
	frames     []frame
	next       int // frame cursor, continuing across segments
	sentFrames int64
	sent       int64
	accepted   map[string]int64
	ack        samples
	err        error
}

// pipelineDepth is how many frames a pipelining connection keeps in
// flight before it reads an ack.
const pipelineDepth = 4

// run writes frames (cycling) until deadline, keeping pipelineDepth in
// flight, then drains the outstanding acks. Every ack must accept its
// whole frame.
func (p *pipe) run(deadline time.Time) {
	type inflight struct {
		f  *frame
		t0 time.Time
	}
	var q []inflight
	pop := func() error {
		head := q[0]
		q = q[1:]
		n, err := p.rc.batchAck()
		p.ack.add(time.Since(head.t0))
		if err != nil {
			return err
		}
		p.accepted[head.f.query] += int64(n)
		if n != head.f.n {
			return fmt.Errorf("frame of %d reports acked %d", head.f.n, n)
		}
		return nil
	}
	for p.err == nil && time.Now().Before(deadline) {
		f := &p.frames[p.next%len(p.frames)]
		p.next++
		t0 := time.Now()
		if p.err = p.rc.write(f.enc); p.err != nil {
			return
		}
		p.sentFrames++
		p.sent += int64(f.n)
		q = append(q, inflight{f, t0})
		if len(q) == pipelineDepth {
			p.err = pop()
		}
	}
	for p.err == nil && len(q) > 0 {
		p.err = pop()
	}
}

func (p *pipe) acked() int64 {
	var n int64
	for _, v := range p.accepted {
		n += v
	}
	return n
}

// ingestCollector: pre-encoded 1024-report frames pipelined on two raw
// connections — v1 BATCH on one, v2 CBATCH on the other — into an epoch
// registry (count-based rotation) holding a mean and a frequency query.
func ingestCollector(cfg config, o *outcome) (float64, error) {
	ecfg := hdr4me.EpochConfig{Every: ingestEvery, Retain: 1 << 12}
	env, teardown, sc, err := startSetup(cfg, func(dir string) (*collEnv, func(), error) {
		c, err := startCollector(filepath.Join(dir, "ckpt"), true, ecfg, nil, nil, "pw64", "f8", probeQuery)
		if err != nil {
			return nil, nil, err
		}
		env := &collEnv{c: c}
		var v1, v2 [][]frame
		for _, name := range []string{"pw64", "f8"} {
			reps, err := genReports(specs[name], cfg.sized(16*frameReports, frameReports), subSeed(cfg.seed, "coll-"+name, 0), &env.reportSp)
			if err != nil {
				return nil, c.close, err
			}
			env.pools = append(env.pools, pool{name, reps})
			f1, err := encodeFrames(transport.CodecV1{}, name, reps, frameReports)
			if err != nil {
				return nil, c.close, err
			}
			f2, err := encodeFrames(transport.CodecV2{}, name, reps, frameReports)
			if err != nil {
				return nil, c.close, err
			}
			v1, v2 = append(v1, f1), append(v2, f2)
		}
		env.v1, env.v2 = interleave(v1...), interleave(v2...)
		env.devReps, err = genReports(specs[probeQuery], cfg.sized(1024, 16), subSeed(cfg.seed, "probe-devices", 0), nil)
		return env, c.close, err
	})
	if err != nil {
		return 0, err
	}
	defer teardown()
	c := env.c

	var pipes [2]*pipe
	for i, fs := range [][]frame{env.v1, env.v2} {
		rc, err := dialRaw(c.addr)
		if err != nil {
			return 0, err
		}
		defer rc.close()
		pipes[i] = &pipe{rc: rc, frames: fs, accepted: map[string]int64{}}
	}
	probe := newProbes(cfg, c, readCycle([]int{opEnhanced, opEstimate, opWindow, opDecay}, "pw64"), env.devReps)
	var (
		use   procUse
		rates []float64
	)
	for k := range segments {
		before := pipes[0].acked() + pipes[1].acked()
		a := procNow()
		deadline := a.wall.Add(segmentTime(cfg))
		var wg sync.WaitGroup
		for _, p := range pipes {
			wg.Add(1)
			go func() {
				defer wg.Done()
				p.run(deadline)
			}()
		}
		wg.Wait()
		b := procNow()
		use.add(a, b)
		rates = append(rates, float64(pipes[0].acked()+pipes[1].acked()-before)/b.wall.Sub(a.wall).Seconds())
		if err := sc.again(); err != nil {
			return 0, err
		}
		if err := probe.slice(k); err != nil {
			return 0, err
		}
	}

	var sent, accepted, wrote int64
	perQuery := map[string]int64{}
	for i, p := range pipes {
		for q, n := range p.accepted {
			perQuery[q] += n
		}
		sent += p.sent
		accepted += p.acked()
		wrote += p.rc.wrote.Load()
		o.gate(fmt.Sprintf("acks.conn%d", i+1), p.err == nil && p.acked() == p.sent,
			"sent %d, acked %d, error %v", p.sent, p.acked(), p.err)
	}
	o.ops(sent, sent-accepted)
	o.set("ingest_reports_per_s", median(rates))
	o.set("wire_bytes_per_report", float64(wrote)/float64(sent))
	o.set("heap_mb", heapMiB())
	o.note("reports", float64(accepted))
	procMetrics(o, use, accepted)
	probe.record(o)
	sc.record(o)
	rotations := c.rotations()
	for _, name := range []string{"pw64", "f8"} {
		countsGate(o, c, name, 0, perQuery[name])
	}
	st := statsGate(o, c, int64(probe.nDev), pipes[1].sentFrames+int64(probe.nDev))

	cost := 1e9 / o.metrics["ingest_reports_per_s"]
	if !cfg.trace {
		return cost, nil
	}
	serverRows(o, st)
	deviceRows(o, probe.devs, sessionsLive(st))
	o.set("epoch.rotations", float64(rotations))
	var ack samples
	ack.merge(&pipes[0].ack)
	ack.merge(&pipes[1].ack)
	o.set("transport.batch_ack_us.p50", us(ack.quantile(0.5)))
	o.set("transport.batch_ack_us.p99", us(ack.quantile(0.99)))
	o.set("hdr4me.report.ns_per_report", env.reportSp.perOp())
	reads, err := readRegistry(cfg)
	if err != nil {
		return 0, err
	}
	inproc, err := ledger(ledgerIn{cfg: cfg, pools: env.pools, batch: frameReports, primary: "pw64",
		c: c, reads: reads.reg, ops: probe.reads.ops}, o)
	if err != nil {
		return 0, err
	}
	readRows(o, probe.reads, inproc)
	// Core time per report against the collector-side layers: half the
	// reports accumulate into ring lanes as rows (v1), half as columns
	// (v2), and rotation runs inside ingest.
	m := o.metrics
	explained := (m["est.accumulate.ring.rows.ns_per_report"]+m["est.accumulate.ring.cols.ns_per_report"])/2 +
		m["epoch.rotate.us"]*1e3*float64(rotations)/float64(accepted)
	unexplained(o, use.wall, accepted, explained)
	return cost, nil
}

// ---- query-under-load ---------------------------------------------------------

// readState is the query-under-load checkpoint content: three continual
// queries filled with seeded reports over several epochs.
type readState struct {
	reg    *hdr4me.Registry
	acct   *hdr4me.Accountant
	lastSW []hdr4me.Tuple // sw256 tuples of the live epoch
}

// readEpochs is how many epochs the checkpointed queries span, each
// holding epochReports reports per query.
const (
	readEpochs   = 4
	epochReports = 8000
)

var readQueries = []string{"sw256", "lap32", "cats"}

// readConfig is the epoch configuration of the read-path registries:
// explicit rotation only (the ROTATE frames), all epochs retained.
var readConfig = hdr4me.EpochConfig{Retain: 1 << 12}

// readRegistry builds the read-path registry: sw256, lap32 and cats on an
// epoch registry, each filled with readEpochs epochs of seeded reports.
func readRegistry(cfg config) (*readState, error) {
	reg, acct, err := newRegistry(true, readConfig)
	if err != nil {
		return nil, err
	}
	rs := &readState{reg: reg, acct: acct}
	for _, name := range readQueries {
		if _, err := reg.Open(specs[name]); err != nil {
			return nil, err
		}
	}
	for e := range readEpochs {
		if e > 0 {
			hdr4me.RotateCollector(reg, acct)
		}
		for _, name := range readQueries {
			spec := specs[name]
			ts := genTuples(spec, cfg.sized(epochReports, 200), hdr4me.NewRNG(subSeed(cfg.seed, "read-"+name, uint64(e))))
			reps, err := perturb(spec, ts, subSeed(cfg.seed, "read-perturb-"+name, uint64(e)), nil)
			if err != nil {
				return nil, err
			}
			if n, err := reg.Get(name).AddReports(reps); err != nil || n != len(reps) {
				return nil, fmt.Errorf("fill %s: %d of %d accepted: %v", name, n, len(reps), err)
			}
			if name == "sw256" {
				rs.lastSW = ts
			}
		}
	}
	return rs, nil
}

type qulEnv struct {
	c         *collector
	saved     []byte // the checkpoint file written in setup
	lastSW    []hdr4me.Tuple
	restored  map[string]int64
	restoreMs float64
	frames    []frame
	devReps   []hdr4me.Report
	pools     []pool
}

// Query-under-load schedules.
const (
	readInterval   = 2500 * time.Microsecond
	ingestInterval = 25 * time.Millisecond
	// Every checkpointEvery-th ingest slot is a CHECKPOINT, every
	// rotateEvery-th (offset) a ROTATE of the next query.
	checkpointEvery = 40
	rotateEvery     = 20
)

// queryUnderLoad: a collector restored from a seeded checkpoint serves
// an open-loop read schedule (ENHANCED/ESTIMATE/WINDOW/DECAY round-robin
// over three queries) on one connection while the other ingests
// pre-encoded CBATCH frames at a fixed rate, interleaved with CHECKPOINT
// and ROTATE frames.
func queryUnderLoad(cfg config, o *outcome) (float64, error) {
	env, teardown, sc, err := startSetup(cfg, func(dir string) (*qulEnv, func(), error) {
		rs, err := readRegistry(cfg)
		if err != nil {
			return nil, nil, err
		}
		ckpt := filepath.Join(dir, "ckpt")
		if err := hdr4me.SaveCollectorState(ckpt, rs.reg, rs.acct); err != nil {
			return nil, nil, err
		}
		saved, err := readCheckpoint(ckpt)
		if err != nil {
			return nil, nil, err
		}
		reg, acct, err := newRegistry(true, readConfig)
		if err != nil {
			return nil, nil, err
		}
		t0 := time.Now()
		if _, err := hdr4me.RestoreCollectorState(ckpt, reg, acct); err != nil {
			return nil, nil, err
		}
		restoreMs := time.Since(t0).Seconds() * 1e3
		c, err := startCollector(filepath.Join(dir, "live"), true, readConfig, reg, acct)
		if err != nil {
			return nil, nil, err
		}
		env := &qulEnv{c: c, saved: saved, lastSW: rs.lastSW, restored: map[string]int64{}, restoreMs: restoreMs}
		var fs [][]frame
		for _, name := range readQueries {
			env.restored[name] = c.totalCounts(name)
			reps, err := genReports(specs[name], cfg.sized(4*frameReports, frameReports), subSeed(cfg.seed, "qul-ingest-"+name, 0), nil)
			if err != nil {
				return nil, c.close, err
			}
			env.pools = append(env.pools, pool{name, reps})
			f, err := encodeFrames(transport.CodecV2{}, name, reps, frameReports)
			if err != nil {
				return nil, c.close, err
			}
			fs = append(fs, f)
		}
		env.frames = interleave(fs...)
		env.devReps, err = genReports(specs[probeQuery], cfg.sized(1024, 16), subSeed(cfg.seed, "probe-devices", 0), nil)
		return env, c.close, err
	})
	if err != nil {
		return 0, err
	}
	defer teardown()
	c := env.c
	restoredGates(cfg, o, env)
	if _, err := c.reg.Open(specs[probeQuery]); err != nil {
		return 0, err
	}

	// The two schedules, cut into segments.
	ops := readCycle([]int{opEnhanced, opEstimate, opWindow, opDecay}, readQueries...)
	seg := segmentTime(cfg)
	nReads := max(int(seg/readInterval), 1)
	perSeg := max(int(seg/ingestInterval), 1)
	var events []ingestEvent
	rot := 0
	for k := range segments * perSeg {
		switch {
		case k%checkpointEvery == checkpointEvery/2:
			events = append(events, ingestEvent{kind: evCheckpoint})
		case k%rotateEvery == rotateEvery/4:
			events = append(events, ingestEvent{kind: evRotate, query: readQueries[rot%len(readQueries)]})
			rot++
		default:
			events = append(events, ingestEvent{kind: evFrame, frame: &env.frames[k%len(env.frames)]})
		}
	}
	rc, err := dialRaw(c.addr)
	if err != nil {
		return 0, err
	}
	defer rc.close()

	probe := newProbes(cfg, c, nil, env.devReps)
	var (
		use  procUse
		rs   = &readStats{}
		is   = &ingestStats{accepted: map[string]int64{}}
		wall time.Duration
	)
	for k := range segments {
		var (
			segReads *readStats
			segIn    *ingestStats
			rsErr    error
			wg       sync.WaitGroup
		)
		a := procNow()
		wg.Add(2)
		go func() {
			defer wg.Done()
			segReads, rsErr = readSeries(c.addr, ops, nReads, readInterval, subSeed(cfg.seed, "qul-reads", uint64(k)))
		}()
		go func() {
			defer wg.Done()
			segIn = ingestSeries(rc, events[k*perSeg:(k+1)*perSeg], ingestInterval, subSeed(cfg.seed, "qul-ingest", uint64(k)))
		}()
		wg.Wait()
		b := procNow()
		if rsErr != nil {
			return 0, rsErr
		}
		use.add(a, b)
		wall += b.wall.Sub(a.wall)
		rs.merge(segReads)
		is.merge(segIn)
		if err := sc.again(); err != nil {
			return 0, err
		}
		if err := probe.slice(k); err != nil {
			return 0, err
		}
	}

	var accepted int64
	for _, n := range is.accepted {
		accepted += n
	}
	readMetrics(o, rs)
	o.ops(is.attempted, is.failed)
	o.set("ingest_reports_per_s", float64(accepted)/wall.Seconds())
	o.set("wire_bytes_per_report", float64(rc.wrote.Load())/float64(is.sentReports))
	o.set("heap_mb", heapMiB())
	o.note("reports", float64(accepted))
	o.note("checkpoints", float64(is.checkpoints))
	procMetrics(o, use, rs.attempted)
	probe.record(o)
	sc.record(o)
	o.gate("acks.ingest", is.failed == 0 && accepted == is.sentReports,
		"sent %d reports, acked %d; %d failed exchanges", is.sentReports, accepted, is.failed)
	for _, name := range readQueries {
		countsGate(o, c, name, env.restored[name], is.accepted[name])
	}
	st := statsGate(o, c, int64(probe.nDev), is.frames+int64(probe.nDev))

	cost := o.metrics["read_p50_ms"]
	if !cfg.trace {
		return cost, nil
	}
	serverRows(o, st)
	deviceRows(o, probe.devs, sessionsLive(st))
	o.set("epoch.rotations", float64(is.rotations))
	o.set("transport.batch_ack_us.p50", us(is.ack.quantile(0.5)))
	o.set("transport.batch_ack_us.p99", us(is.ack.quantile(0.99)))
	var late samples
	late.merge(&rs.late)
	late.merge(&is.late)
	o.set("gen.late_ms.p99", ms(late.quantile(0.99)))
	o.note("live_checkpoint_ms", c.saveSp.perOp()/1e6)
	inproc, err := ledger(ledgerIn{cfg: cfg, pools: env.pools, batch: frameReports, primary: "sw256",
		c: c, reads: c.reg, ops: rs.ops}, o)
	if err != nil {
		return 0, err
	}
	o.set("hdr4me.report.ns_per_report", o.notes["ledger.hdr4me.report.ns_per_report"])
	o.set("persist.restore.ms", env.restoreMs)
	readRows(o, rs, inproc)
	o.set("trace.unexplained_share", o.notes["read.unexplained_share"])
	return cost, nil
}

// restoredGates checks the restored collector: it must re-save to the
// checkpoint it was restored from byte for byte, and HDR4ME's enhanced
// sw256 estimate must beat the naive one on the live epoch.
func restoredGates(cfg config, o *outcome, env *qulEnv) {
	c := env.c
	dir := filepath.Join(cfg.dir, "resave")
	err := hdr4me.SaveCollectorState(dir, c.reg, c.acct)
	var again []byte
	if err == nil {
		again, err = readCheckpoint(dir)
	}
	o.gate("restore_bitwise", err == nil && bytes.Equal(again, env.saved),
		"re-saved checkpoint %d bytes vs saved %d bytes, error %v", len(again), len(env.saved), err)

	e := c.reg.Get("sw256").Estimator()
	naive := e.Estimate()
	enhanced, err := e.(est.Enhancer).Enhanced()
	truth := trueMean(env.lastSW, int64(len(env.lastSW)))
	var naiveMSE, enhMSE float64
	if err == nil {
		naiveMSE, enhMSE = hdr4me.MSE(naive, truth), hdr4me.MSE(enhanced, truth)
	}
	o.note("sw256.naive_mse", naiveMSE)
	o.note("sw256.enhanced_mse", enhMSE)
	o.gate("enhanced_beats_naive", err == nil && enhMSE <= naiveMSE,
		"sw256 live epoch: enhanced MSE %.4g, naive MSE %.4g, error %v", enhMSE, naiveMSE, err)
}

// ---- device-churn -------------------------------------------------------------

type churnEnv struct {
	c    *collector
	reps []hdr4me.Report
}

// deviceChurn: a fixed number of one-report devices, two at a time, each
// dialing, opening a replay session, shipping one sequenced CBATCH and
// closing.
func deviceChurn(cfg config, o *outcome) (float64, error) {
	env, teardown, sc, err := startSetup(cfg, func(dir string) (*churnEnv, func(), error) {
		c, err := startCollector(filepath.Join(dir, "ckpt"), true, hdr4me.EpochConfig{Retain: 16}, nil, nil, "pw16")
		if err != nil {
			return nil, nil, err
		}
		reps, err := genReports(specs["pw16"], cfg.sized(4096, 64), subSeed(cfg.seed, "churn-devices", 0), nil)
		return &churnEnv{c: c, reps: reps}, c.close, err
	})
	if err != nil {
		return 0, err
	}
	defer teardown()
	c := env.c

	n := cfg.sized(churnDevices, 2*segments)
	ds := newDeviceStats(n)
	probe := newProbes(cfg, c, readCycle([]int{opEnhanced, opEstimate, opWindow, opDecay}, "pw16"), nil)
	var (
		wrote atomic.Int64
		use   procUse
		rates []float64
	)
	for k := range segments {
		lo, hi := k*n/segments, (k+1)*n/segments
		a := procNow()
		runDevices(c.addr, "pw16", env.reps, lo, hi, clients, &wrote, ds)
		b := procNow()
		use.add(a, b)
		rates = append(rates, float64(hi-lo)/b.wall.Sub(a.wall).Seconds())
		if err := sc.again(); err != nil {
			return 0, err
		}
		if err := probe.slice(k); err != nil {
			return 0, err
		}
	}
	deviceMetrics(o, ds, median(rates))
	accepted := ds.accepted.Load()
	o.set("ingest_reports_per_s", median(rates))
	o.set("wire_bytes_per_report", float64(wrote.Load())/float64(n))
	o.set("heap_mb", heapMiB())
	o.note("devices", float64(n))
	procMetrics(o, use, int64(n))
	probe.record(o)
	sc.record(o)
	o.gate("acks.devices", accepted == int64(n), "%d of %d devices acked", accepted, n)
	countsGate(o, c, "pw16", 0, accepted)
	st := statsGate(o, c, int64(n), int64(n))

	cost := o.metrics["device_p50_ms"]
	if !cfg.trace {
		return cost, nil
	}
	serverRows(o, st)
	deviceRows(o, ds, sessionsLive(st))
	o.set("epoch.rotations", float64(c.rotations()))
	reads, err := readRegistry(cfg)
	if err != nil {
		return 0, err
	}
	inproc, err := ledger(ledgerIn{cfg: cfg, pools: []pool{{"pw16", env.reps}}, batch: 1, primary: "pw16",
		c: c, reads: reads.reg, ops: probe.reads.ops}, o)
	if err != nil {
		return 0, err
	}
	o.set("hdr4me.report.ns_per_report", o.notes["ledger.hdr4me.report.ns_per_report"])
	readRows(o, probe.reads, inproc)
	// Core time per device against the in-process layers of its one
	// report: single-report CBATCH encode, ring column accumulation.
	m := o.metrics
	explained := m["transport.encode_v2.ns_per_report"] + m["est.accumulate.ring.cols.ns_per_report"]
	unexplained(o, use.wall, int64(n), explained)
	return cost, nil
}
