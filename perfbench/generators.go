package main

import (
	"fmt"
	"syscall"
	"time"

	hdr4me "github.com/hdr4me/hdr4me"
	"github.com/hdr4me/hdr4me/internal/transport"
)

// Read operations of the open-loop read generator.
const (
	opEnhanced = iota
	opEstimate
	opWindow
	opDecay
)

// readWindow and readGamma parameterize the WINDOW and DECAY reads.
const (
	readWindow = 4
	readGamma  = 0.9
)

// readOp is one slot of the read generator's cycle.
type readOp struct {
	kind  int
	query string
}

// readCycle interleaves kinds over queries round-robin: every kind is
// issued against every query once per cycle, queries varying fastest.
func readCycle(kinds []int, queries ...string) []readOp {
	var ops []readOp
	for _, k := range kinds {
		for _, q := range queries {
			ops = append(ops, readOp{k, q})
		}
	}
	return ops
}

// schedule returns n send times spaced interval apart from start, each
// jittered by up to ±interval/4 from its grid point with seeded
// randomness, so the schedule is an input derived from the seed while
// the offered rate stays fixed.
func schedule(start time.Time, n int, interval time.Duration, seed uint64) []time.Time {
	rng := hdr4me.NewRNG(seed)
	out := make([]time.Time, n)
	for k := range out {
		off := float64(k) + 0.25 + 0.5*rng.Float64()
		out[k] = start.Add(time.Duration(off * float64(interval)))
	}
	return out
}

// waitUntil sleeps until t and returns the actual send time. It sleeps
// in nanosleep(2) on the goroutine's own thread: the runtime's timers
// wake a sleeping goroutine up to a millisecond late when the process is
// otherwise idle, which would swamp sub-millisecond schedules.
func waitUntil(t time.Time) time.Time {
	if d := time.Until(t); d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil) // an early EINTR return only sends early
	}
	return time.Now()
}

// latencyStart is where a request's latency is timed from. A request
// held back by its predecessor (which finished after this one was due)
// is timed from its due time, so a collector stall counts against every
// request it delays. A request whose connection was idle at its due time
// is timed from its actual send: the gap is the generator's own timer
// wake-up, reported as gen.late_ms and not as collector latency.
func latencyStart(due, sent, prevDone time.Time) time.Time {
	if prevDone.After(due) {
		return due
	}
	return sent
}

// readStats is what a read series measured: latencies (open loop: timed
// from latencyStart; closed loop: from the send), the generator's
// lateness (against its schedule; in a closed loop, against the previous
// reply), and each request's round trip from its actual send.
type readStats struct {
	enhanced, read samples
	late           samples
	rtt            []int64 // per request, in issue order
	ops            []readOp
	attempted      int64
	failed         int64
}

// merge appends another slice of the same series.
func (st *readStats) merge(o *readStats) {
	st.enhanced.merge(&o.enhanced)
	st.read.merge(&o.read)
	st.late.merge(&o.late)
	st.rtt = append(st.rtt, o.rtt...)
	st.ops = append(st.ops, o.ops...)
	st.attempted += o.attempted
	st.failed += o.failed
}

// readSeries issues n reads over one connection, cycling through ops: on
// a fixed open-loop schedule, or back to back (closed loop) when interval
// is zero.
func readSeries(addr string, ops []readOp, n int, interval time.Duration, seed uint64) (*readStats, error) {
	c, err := transport.Dial(addr)
	if err != nil {
		return nil, fmt.Errorf("read generator dial: %w", err)
	}
	defer c.Close()
	handles := map[string]*transport.Query{}
	for _, op := range ops {
		handles[op.query] = c.Query(op.query)
	}
	st := &readStats{rtt: make([]int64, 0, n), ops: make([]readOp, 0, n)}
	prevDone := time.Now()
	closed := interval == 0
	for k, due := range schedule(prevDone, n, interval, seed) {
		op := ops[k%len(ops)]
		q := handles[op.query]
		if closed {
			due = prevDone // a closed loop's next request is due at the last reply
		}
		sent := waitUntil(due)
		var err error
		switch op.kind {
		case opEnhanced:
			_, err = q.Enhanced()
		case opEstimate:
			_, err = q.Estimate()
		case opWindow:
			_, err = q.WindowEstimate(readWindow)
		case opDecay:
			_, err = q.DecayedEstimate(readGamma)
		}
		done := time.Now()
		st.attempted++
		if err != nil {
			st.failed++
		}
		st.late.add(max(sent.Sub(due), 0))
		st.rtt = append(st.rtt, int64(done.Sub(sent)))
		st.ops = append(st.ops, op)
		start := sent
		if !closed {
			start = latencyStart(due, sent, prevDone)
		}
		lat := done.Sub(start)
		prevDone = done
		if op.kind == opEnhanced {
			st.enhanced.add(lat)
		} else {
			st.read.add(lat)
		}
	}
	return st, nil
}

// ingestEvent is one slot of the query-under-load ingest schedule.
type ingestEvent struct {
	kind  int // evFrame, evCheckpoint or evRotate
	frame *frame
	query string // rotated query
}

const (
	evFrame = iota
	evCheckpoint
	evRotate
)

// merge appends another chunk of the same series.
func (st *ingestStats) merge(o *ingestStats) {
	st.ack.merge(&o.ack)
	st.late.merge(&o.late)
	st.sentReports += o.sentReports
	for q, n := range o.accepted {
		st.accepted[q] += n
	}
	st.frames += o.frames
	st.checkpoints += o.checkpoints
	st.rotations += o.rotations
	st.attempted += o.attempted
	st.failed += o.failed
}

// ingestStats is what the open-loop ingest connection measured.
type ingestStats struct {
	ack               samples // frame write → ack
	late              samples
	sentReports       int64
	accepted          map[string]int64
	frames            int64
	checkpoints       int64
	rotations         int64
	attempted, failed int64
}

// ingestSeries plays events on one raw connection on a fixed open-loop
// schedule: pre-encoded frames, CHECKPOINT and ROTATE frames, each
// waiting for its reply before the next slot.
func ingestSeries(rc *rawConn, events []ingestEvent, interval time.Duration, seed uint64) *ingestStats {
	st := &ingestStats{accepted: map[string]int64{}}
	for k, due := range schedule(time.Now(), len(events), interval, seed) {
		ev := events[k]
		sent := waitUntil(due)
		st.late.add(max(sent.Sub(due), 0))
		st.attempted++
		var err error
		switch ev.kind {
		case evFrame:
			st.frames++
			st.sentReports += int64(ev.frame.n)
			if err = rc.write(ev.frame.enc); err == nil {
				var acc int
				acc, err = rc.batchAck()
				st.ack.add(time.Since(sent))
				st.accepted[ev.frame.query] += int64(acc)
				if err == nil && acc != ev.frame.n {
					err = fmt.Errorf("frame of %d reports acked %d", ev.frame.n, acc)
				}
			}
		case evCheckpoint:
			st.checkpoints++
			err = rc.checkpoint()
		case evRotate:
			st.rotations++
			err = rc.rotate(ev.query)
		}
		if err != nil {
			st.failed++
		}
	}
	return st
}
