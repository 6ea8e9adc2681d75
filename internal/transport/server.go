package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hdr4me/hdr4me/internal/est"
)

// Accept-loop backoff bounds: a persistent Accept error (EMFILE, ENFILE,
// ...) must not hot-spin the loop, so retries back off exponentially from
// acceptBackoffMin to acceptBackoffMax and reset on the next success —
// the same discipline net/http.Server uses.
const (
	acceptBackoffMin = 5 * time.Millisecond
	acceptBackoffMax = 1 * time.Second
)

// Server is a TCP collector: it accepts report frames from any number of
// concurrent client connections and routes them into the named queries of
// an est.Registry — each query its own est.Estimator (the
// sampling-protocol mean aggregator, the whole-tuple aggregator and the
// frequency reducer all speak the same wire shape). Un-routed frames
// resolve to the registry's default query, so a single-tenant server
// (NewServer) is just a registry with one default entry and legacy
// clients keep working. Beyond single reports it serves BATCH frames
// (amortized ingestion), the SNAPSHOT/MERGE pair (shard-tree
// composition), OPENQUERY (remote query registration) and SELECT-routed
// exchanges against any named query.
type Server struct {
	// Est is the default query's estimator (nil for a registry server
	// without a default query). Kept for single-tenant callers and tests;
	// routing always goes through the registry.
	Est est.Estimator

	// Logf receives per-connection errors; defaults to log.Printf.
	Logf func(format string, args ...any)

	// OnCheckpoint, when non-nil, serves the CHECKPOINT (0x0B) wire
	// frame: the owner wires it to its durable-state writer (see
	// internal/persist), so an operator — or the crash-recovery e2e —
	// can force the collector state to disk on demand. A nil hook NACKs
	// the frame; a hook error travels back as the NACK's error string.
	OnCheckpoint func() error

	// LegacyIngest switches BATCH ingestion back to the pre-striping
	// baseline: allocating per-report decode plus one estimator-lock
	// acquisition per report. It exists solely so the ingest benchmark
	// (scripts/bench.sh, BENCH_ingest.json) can A/B the lock-striped
	// batch path against the old single-global-mutex path in one run.
	// Leave it false in production.
	LegacyIngest bool

	// IdleTimeout bounds how long a connection may sit between (or
	// inside) frames: the read deadline is re-armed before every frame
	// and covers its body, so a stalled or trickling client is
	// force-closed — and counted in Stats — instead of pinning its
	// goroutine forever. Zero disables the deadline.
	IdleTimeout time.Duration

	// WriteTimeout bounds the replies of one exchange: the write
	// deadline is armed when a frame arrives and covers every reply
	// write through the final flush, so a client that stops reading
	// cannot wedge the server behind a full socket buffer. Zero
	// disables the deadline.
	WriteTimeout time.Duration

	// MaxConns caps concurrently served connections. An over-limit
	// accept is answered with a single retryable-NACK byte and closed —
	// shed, not queued — so admission failures are prompt and explicit.
	// Zero means unlimited.
	MaxConns int

	// MaxInflight caps the total reports being decoded and accumulated
	// across all connections at once, in report units. A batch that
	// would exceed it is consumed and NACKed retryable instead of
	// queuing behind the estimator; a batch bigger than the whole cap
	// is still admitted when the server is otherwise idle, so oversized
	// batches degrade to serial ingest rather than starving forever.
	// Zero means unlimited.
	MaxInflight int

	// SessionTTL bounds how long a disconnected replay session's state
	// is retained for resumption (default 2m). Expired sessions are
	// dropped, oldest first, on HELLO traffic.
	SessionTTL time.Duration

	reg *est.Registry

	stats    serverStats
	sessions sessionTable
	inflight atomic.Int64

	wg   sync.WaitGroup
	stop chan struct{}

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
}

// serverStats aggregates the failure-path counters under atomics — they
// are bumped from connection goroutines and read by Stats.
type serverStats struct {
	connsShed        atomic.Uint64
	deadlinesTripped atomic.Uint64
	batchesShed      atomic.Uint64
	sessionsOpened   atomic.Uint64
	sessionsResumed  atomic.Uint64
	batchesDeduped   atomic.Uint64
	hellosV2         atomic.Uint64
	cbatchFrames     atomic.Uint64
}

// ServerStats is a point-in-time snapshot of a collector's failure
// counters: what was shed, what tripped a deadline, and how the
// exactly-once replay machinery is being exercised.
type ServerStats struct {
	// ConnsShed counts accepts refused with a retryable NACK because
	// MaxConns was reached.
	ConnsShed uint64 `json:"conns_shed"`
	// DeadlinesTripped counts connections force-closed by the idle or
	// write deadline.
	DeadlinesTripped uint64 `json:"deadlines_tripped"`
	// BatchesShed counts BATCH frames NACKed retryable — the MaxInflight
	// admission gate plus sequencing gaps after an earlier shed.
	BatchesShed uint64 `json:"batches_shed"`
	// SessionsOpened counts HELLO frames that minted a new replay
	// session.
	SessionsOpened uint64 `json:"sessions_opened"`
	// SessionsResumed counts HELLO frames that re-attached to a live
	// session — each one a client-side reconnect.
	SessionsResumed uint64 `json:"sessions_resumed"`
	// SessionsLive is the number of replay sessions the collector holds
	// right now, attached or detached.
	SessionsLive int `json:"sessions_live"`
	// SessionsEvicted counts sessions dropped before a resume: detached
	// past SessionTTL, or never sequenced and replaced by a HELLO(0) on
	// the same connection.
	SessionsEvicted uint64 `json:"sessions_evicted"`
	// BatchesDeduped counts sequenced batches that were already applied
	// and acknowledged from the session record — replays the
	// exactly-once contract suppressed.
	BatchesDeduped uint64 `json:"batches_deduped"`
	// HellosV2 counts HELLO exchanges that negotiated protocol version 2
	// or higher — how much of the client population speaks the columnar
	// frame.
	HellosV2 uint64 `json:"hellos_v2"`
	// CBatches counts columnar batch (0x13 CBATCH) frames served,
	// whatever their outcome.
	CBatches uint64 `json:"cbatch_frames"`
	// ProtocolMax is the highest wire protocol version this collector
	// speaks (constant per build, carried here so /debug/collector
	// reports it).
	ProtocolMax int `json:"protocol_max"`
}

// Stats snapshots the server's failure counters.
func (s *Server) Stats() ServerStats {
	live, evicted := s.sessions.counts()
	return ServerStats{
		ConnsShed:        s.stats.connsShed.Load(),
		DeadlinesTripped: s.stats.deadlinesTripped.Load(),
		BatchesShed:      s.stats.batchesShed.Load(),
		SessionsOpened:   s.stats.sessionsOpened.Load(),
		SessionsResumed:  s.stats.sessionsResumed.Load(),
		SessionsLive:     live,
		SessionsEvicted:  evicted,
		BatchesDeduped:   s.stats.batchesDeduped.Load(),
		HellosV2:         s.stats.hellosV2.Load(),
		CBatches:         s.stats.cbatchFrames.Load(),
		ProtocolMax:      ProtocolMax,
	}
}

// NewServer wraps a single estimator in a collector server: a registry
// with e as its default query (no factory, no admission — the multi-query
// surface needs NewRegistryServer).
func NewServer(e est.Estimator) *Server {
	reg := est.NewRegistry(nil, nil)
	if _, err := reg.Attach(est.QuerySpec{Name: est.DefaultName}, e); err != nil {
		// Attach of a non-nil estimator under a fresh name cannot fail.
		panic(fmt.Sprintf("transport: default query: %v", err))
	}
	srv := NewRegistryServer(reg)
	srv.Est = e
	return srv
}

// NewRegistryServer wraps a registry of named queries in a collector
// server. Legacy un-routed frames resolve to the registry's default query
// (est.DefaultName), if one is registered.
func NewRegistryServer(reg *est.Registry) *Server {
	srv := &Server{
		Logf:  log.Printf,
		reg:   reg,
		stop:  make(chan struct{}),
		conns: make(map[net.Conn]struct{}),
	}
	if d := reg.Default(); d != nil {
		srv.Est = d.Estimator()
	}
	return srv
}

// Registry exposes the registry this server routes into.
func (s *Server) Registry() *est.Registry { return s.reg }

// Listen binds addr ("host:port"; use ":0" for an ephemeral port) and starts
// serving in background goroutines. It returns the bound address.
func (s *Server) Listen(addr string) (net.Addr, error) {
	return s.ListenContext(context.Background(), addr)
}

// ListenContext is Listen bound to a context: when ctx is cancelled the
// server closes its listener and every open connection, exactly as Close.
// A nil ctx is treated as context.Background().
func (s *Server) ListenContext(ctx context.Context, addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	if err := s.ServeContext(ctx, ln); err != nil {
		ln.Close()
		return nil, err
	}
	return ln.Addr(), nil
}

// Serve starts serving on an existing listener in background goroutines,
// for callers that bind their own socket (systemd activation, tests).
func (s *Server) Serve(ln net.Listener) error {
	return s.ServeContext(context.Background(), ln)
}

// ServeContext is Serve bound to a context, exactly as ListenContext.
func (s *Server) ServeContext(ctx context.Context, ln net.Listener) error {
	if ctx == nil {
		ctx = context.Background()
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return net.ErrClosed
	}
	if s.ln != nil {
		s.mu.Unlock()
		return fmt.Errorf("transport: server already listening")
	}
	s.ln = ln
	s.mu.Unlock()
	if done := ctx.Done(); done != nil {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			select {
			case <-done:
				s.shutdown()
			case <-s.stop: // server closed first; the watcher must not leak
			}
		}()
	}
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	var backoff time.Duration
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed || errors.Is(err, net.ErrClosed) {
				return
			}
			if backoff == 0 {
				backoff = acceptBackoffMin
			} else if backoff *= 2; backoff > acceptBackoffMax {
				backoff = acceptBackoffMax
			}
			s.Logf("transport: accept: %v; retrying in %v", err, backoff)
			select {
			case <-time.After(backoff):
			case <-s.stop:
				return
			}
			continue
		}
		backoff = 0
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		if s.MaxConns > 0 && len(s.conns) >= s.MaxConns {
			s.mu.Unlock()
			s.stats.connsShed.Add(1)
			s.wg.Add(1)
			go s.shedConn(conn)
			continue
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() {
				conn.Close()
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
			}()
			if err := s.serveConn(conn); err != nil && !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				var ne net.Error
				if errors.As(err, &ne) && ne.Timeout() {
					s.stats.deadlinesTripped.Add(1)
					s.Logf("transport: conn %s: deadline tripped (%v); force-closed", conn.RemoteAddr(), err)
				} else {
					s.Logf("transport: conn %s: %v", conn.RemoteAddr(), err)
				}
			}
		}()
	}
}

// shedWriteTimeout bounds the single-byte NACK write of a shed accept,
// so a peer that never reads cannot pin the shed goroutine.
const shedWriteTimeout = 2 * time.Second

// shedConn answers an over-limit accept with one retryable-NACK byte and
// closes the connection: the client learns immediately that the
// collector is at capacity (and may back off and redial) instead of
// queuing behind a listener that will never serve it.
func (s *Server) shedConn(conn net.Conn) {
	defer s.wg.Done()
	conn.SetWriteDeadline(time.Now().Add(shedWriteTimeout))
	conn.Write([]byte{ackRetry})
	// The client may have optimistically written a request we will never
	// read; closing with unread bytes in the receive buffer would turn
	// into a RST that can destroy the NACK before the client reads it.
	// Half-close the write side and briefly drain instead, so the NACK
	// is delivered and the client sees a clean EOF.
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.CloseWrite()
		conn.SetReadDeadline(time.Now().Add(shedWriteTimeout))
		io.Copy(io.Discard, conn)
	}
	conn.Close()
}

// admit reserves n reports of in-flight ingest capacity, failing fast
// when the reservation would exceed MaxInflight. A batch larger than the
// whole cap is admitted when nothing else is in flight (cur == 0), so it
// degrades to serial ingest instead of being shed forever.
func (s *Server) admit(n int64) bool {
	if s.MaxInflight <= 0 {
		return true
	}
	for {
		cur := s.inflight.Load()
		if cur > 0 && cur+n > int64(s.MaxInflight) {
			return false
		}
		if s.inflight.CompareAndSwap(cur, cur+n) {
			return true
		}
	}
}

// release returns capacity reserved by admit.
func (s *Server) release(n int64) {
	if s.MaxInflight > 0 {
		s.inflight.Add(-n)
	}
}

// errNoQuery rejects every report of a batch routed to a missing query.
var errNoQuery = errors.New("transport: no such query")

// writeNack writes a rejection status followed by its truncated reason
// string — the reply shape OPENQUERY and CHECKPOINT rejections share.
func writeNack(bw *bufio.Writer, reason string) error {
	if err := bw.WriteByte(ackErr); err != nil {
		return err
	}
	if len(reason) > maxErrLen {
		reason = reason[:maxErrLen]
	}
	return writeString(bw, reason, maxErrLen)
}

// connReadBuf sizes each connection's read buffer: big enough that the
// peek-based embedded-frame decoder almost never falls back to the
// copying path, and that a full default-sized batch needs one socket
// read instead of sixteen.
const connReadBuf = 64 << 10

// serveConn processes frames until the peer closes the connection. Both
// directions are buffered; every reply is flushed before the next read so
// a pipelining client (BufferedClient) sees acks promptly.
//
// Each iteration resolves a target query: the default one, or — when the
// frame is a SELECT route header — the named one, for exactly the one
// frame that follows. A resolution failure (unknown name, no default) is
// answered with the inner frame's rejection status after its body has
// been consumed, so one bad route never desyncs the connection.
//
// Ingest hot path: the connection owns a decode scratch (report frames
// decode with zero steady-state allocations) and one accumulation lane
// per query it touches, so all of this connection's reports land in one
// stripe — in arrival order, exactly as a serial collector would — while
// other connections accumulate under their own stripe locks.
func (s *Server) serveConn(conn net.Conn) error {
	readBuf := connReadBuf
	if s.LegacyIngest {
		readBuf = 4096 // the PR 3 baseline's default bufio size
	}
	br := bufio.NewReaderSize(conn, readBuf)
	bw := bufio.NewWriter(conn)
	sc := &decodeScratch{}
	var lanes map[*est.Query]est.Lane
	laneOf := func(q *est.Query) est.Lane {
		if l, ok := lanes[q]; ok {
			return l
		}
		if lanes == nil {
			lanes = make(map[*est.Query]est.Lane, 1)
		}
		l := q.AcquireLane()
		lanes[q] = l
		return l
	}
	var sess *connSession
	defer func() {
		if sess != nil {
			s.sessions.detach(sess, conn, time.Now())
		}
	}()
	for {
		if s.IdleTimeout > 0 {
			if err := conn.SetReadDeadline(time.Now().Add(s.IdleTimeout)); err != nil {
				return err
			}
		}
		ft, err := sc.readFrameType(br)
		if err != nil {
			return err
		}
		if s.WriteTimeout > 0 {
			// Armed per exchange, before dispatch: replies bigger than the
			// write buffer flush mid-exchange, and those writes must be
			// bounded too, not just the final flush.
			if err := conn.SetWriteDeadline(time.Now().Add(s.WriteTimeout)); err != nil {
				return err
			}
		}
		routed := false
		var q *est.Query
		if ft == frameSelect || ft == frameSelectGen {
			name, err := readString(br, maxNameLen)
			if err != nil {
				return err
			}
			q = s.reg.Get(name)
			if ft == frameSelectGen {
				var gb [8]byte
				if _, err := io.ReadFull(br, gb[:]); err != nil {
					return err
				}
				if gen := binary.BigEndian.Uint64(gb[:]); q != nil && q.Gen() != gen {
					// The name was deleted and reopened since the client
					// pinned its handle: reject rather than silently landing
					// the exchange in the successor query.
					q = nil
				}
			}
			routed = true
			if ft, err = sc.readFrameType(br); err != nil {
				return err
			}
		} else {
			q = s.reg.Default()
		}
		switch ft {
		case frameOpenQuery:
			if routed {
				return fmt.Errorf("transport: OPENQUERY cannot be routed")
			}
			spec, err := readQuerySpecBody(br)
			if err != nil {
				return err
			}
			if _, oerr := s.reg.Open(spec); oerr != nil {
				if err := writeNack(bw, oerr.Error()); err != nil {
					return err
				}
			} else if err := bw.WriteByte(ackOK); err != nil {
				return err
			}
		case frameCheckpoint:
			if routed {
				return fmt.Errorf("transport: CHECKPOINT cannot be routed (a checkpoint spans every query)")
			}
			var cerr error
			if s.OnCheckpoint == nil {
				cerr = fmt.Errorf("collector has no checkpoint sink (no -state-dir)")
			} else {
				cerr = s.OnCheckpoint()
			}
			if cerr != nil {
				if err := writeNack(bw, cerr.Error()); err != nil {
					return err
				}
			} else if err := bw.WriteByte(ackOK); err != nil {
				return err
			}
		case frameReport, frameVecReport:
			sc.reset()
			var rep est.Report
			if ft == frameReport {
				rep, err = readReportBodyInto(br, sc)
			} else {
				rep, err = readVecReportBodyInto(br, sc)
			}
			if err != nil {
				return err
			}
			ack := byte(ackOK)
			if q == nil || laneOf(q).AddReport(rep) != nil {
				ack = ackErr
			}
			if err := bw.WriteByte(ack); err != nil {
				return err
			}
		case frameBatch:
			if sess != nil {
				// A session connection's top-level batches carry explicit
				// sequence numbers: the exactly-once grammar.
				err = s.serveSeqBatch(br, bw, sc, conn, sess, q, laneOf)
			} else {
				err = s.serveLegacyBatch(br, bw, sc, q, laneOf)
			}
			if err != nil {
				return err
			}
		case frameEstimate, frameCounts:
			// The routed forms carry a status byte the legacy forms lack:
			// a legacy client has nowhere to learn about a missing query,
			// so an un-routed request without a default query kills the
			// connection instead of desyncing it.
			if routed {
				ack := byte(ackOK)
				if q == nil {
					ack = ackErr
				}
				if err := bw.WriteByte(ack); err != nil {
					return err
				}
			}
			if q == nil {
				if !routed {
					return fmt.Errorf("transport: no default query to serve frame 0x%02x", ft)
				}
				break
			}
			if ft == frameEstimate {
				err = writeFloats(bw, q.Estimator().Estimate())
			} else {
				err = writeInts(bw, q.Estimator().Counts())
			}
			if err != nil {
				return err
			}
		case frameSnapshot:
			if q == nil {
				if err := bw.WriteByte(ackErr); err != nil {
					return err
				}
				break
			}
			if err := bw.WriteByte(ackOK); err != nil {
				return err
			}
			if err := writeSnapshotBody(bw, q.Estimator().Snapshot()); err != nil {
				return err
			}
		case frameMerge:
			snap, err := readSnapshotBody(br)
			if err != nil {
				return err
			}
			ack := byte(ackOK)
			if q == nil || q.Merge(snap) != nil {
				ack = ackErr
			}
			if err := bw.WriteByte(ack); err != nil {
				return err
			}
		case frameEnhanced:
			var en est.Enhancer
			if q != nil {
				en, _ = q.Estimator().(est.Enhancer)
			}
			if en == nil {
				if err := bw.WriteByte(ackErr); err != nil {
					return err
				}
				break
			}
			enhanced, err := en.Enhanced()
			if err != nil {
				if err := bw.WriteByte(ackErr); err != nil {
					return err
				}
				break
			}
			if err := bw.WriteByte(ackOK); err != nil {
				return err
			}
			if err := writeFloats(bw, enhanced); err != nil {
				return err
			}
		case frameEpoch:
			if err := s.serveEpoch(br, bw, sc, q); err != nil {
				return err
			}
		case frameWindow:
			var wb [4]byte
			if _, err := io.ReadFull(br, wb[:]); err != nil {
				return err
			}
			w := int(binary.BigEndian.Uint32(wb[:]))
			if err := serveRingVector(bw, q, func(r epochEstimator) ([]float64, error) {
				return r.WindowEstimate(w)
			}); err != nil {
				return err
			}
		case frameDecay:
			var gb [8]byte
			if _, err := io.ReadFull(br, gb[:]); err != nil {
				return err
			}
			gamma := math.Float64frombits(binary.BigEndian.Uint64(gb[:]))
			if err := serveRingVector(bw, q, func(r epochEstimator) ([]float64, error) {
				return r.DecayedEstimate(gamma)
			}); err != nil {
				return err
			}
		case frameRotate:
			ring := ringOf(q, true)
			if ring == nil {
				if err := bw.WriteByte(ackErr); err != nil {
					return err
				}
				break
			}
			var reply [9]byte
			reply[0] = ackOK
			binary.BigEndian.PutUint64(reply[1:], ring.Rotate())
			if _, err := bw.Write(reply[:]); err != nil {
				return err
			}
		case frameQueryInfo:
			if routed {
				return fmt.Errorf("transport: QUERYINFO cannot be routed (it names its query in the body)")
			}
			name, err := readString(br, maxNameLen)
			if err != nil {
				return err
			}
			target := s.reg.Get(name)
			if target == nil {
				if err := bw.WriteByte(ackErr); err != nil {
					return err
				}
				break
			}
			var reply [19]byte
			reply[0] = ackOK
			binary.BigEndian.PutUint64(reply[1:9], target.Gen())
			reply[9] = byte(target.State())
			if ring := ringOf(target, false); ring != nil {
				reply[10] = 1
				binary.BigEndian.PutUint64(reply[11:19], ring.Current())
			}
			if _, err := bw.Write(reply[:]); err != nil {
				return err
			}
		case frameHello:
			if routed {
				return fmt.Errorf("transport: HELLO cannot be routed")
			}
			if sess, err = s.serveHello(br, bw, conn, sess); err != nil {
				return err
			}
		case frameCBatch:
			if routed {
				return fmt.Errorf("transport: CBATCH cannot be routed (its route is in-frame)")
			}
			if err := s.serveCBatch(br, bw, sc, conn, sess, laneOf); err != nil {
				return err
			}
		default:
			return fmt.Errorf("unknown frame type 0x%02x", ft)
		}
		if err := bw.Flush(); err != nil {
			return err
		}
	}
}

// writeBatchReply writes the 5-byte batch acknowledgement: status plus
// accepted count.
func writeBatchReply(bw *bufio.Writer, status byte, accepted uint32) error {
	var reply [5]byte
	reply[0] = status
	binary.BigEndian.PutUint32(reply[1:], accepted)
	_, err := bw.Write(reply[:])
	return err
}

// sessionTTL resolves the effective replay-session retention.
func (s *Server) sessionTTL() time.Duration {
	if s.SessionTTL > 0 {
		return s.SessionTTL
	}
	return sessionTTLDefault
}

// serveHello handles one HELLO frame — legacy or versioned — and returns
// the connection's (possibly changed) session. A versioned request
// (helloFlagVersioned set in the token field) carries the client's
// maximum protocol version and is answered with the 25-byte reply body
// whose trailing byte is min(client max, ProtocolMax); the noSession
// flag short-circuits into a pure negotiation ping that opens, resumes
// and touches nothing. Legacy 8-byte-token requests get the legacy
// 24-byte reply, byte for byte as before.
func (s *Server) serveHello(br *bufio.Reader, bw *bufio.Writer, conn net.Conn, sess *connSession) (*connSession, error) {
	var tb [8]byte
	if _, err := io.ReadFull(br, tb[:]); err != nil {
		return sess, err
	}
	raw := binary.BigEndian.Uint64(tb[:])
	versioned := raw&helloFlagVersioned != 0
	token := raw
	negotiated := 0
	if versioned {
		token = raw & helloTokenMask
		clientMax := int(raw & helloVersionMask >> helloVersionShift)
		if clientMax == 0 {
			return sess, writeNack(bw, "versioned HELLO with protocol version 0")
		}
		negotiated = min(clientMax, ProtocolMax)
		if negotiated >= ProtocolV2 {
			s.stats.hellosV2.Add(1)
		}
		if raw&helloFlagNoSession != 0 {
			// Negotiation-only ping: no session is opened or resumed, the
			// session fields of the reply stay zero.
			if err := bw.WriteByte(ackOK); err != nil {
				return sess, err
			}
			return sess, writeHelloReplyBodyV(bw, helloReply{}, negotiated)
		}
	}
	now := time.Now()
	if sess != nil {
		if token == 0 {
			s.sessions.replace(sess, conn, now)
		} else {
			s.sessions.detach(sess, conn, now)
		}
		sess = nil
	}
	s.sessions.sweep(now, s.sessionTTL())
	if token == 0 {
		ns, oerr := s.sessions.open(conn)
		if oerr != nil {
			return sess, writeNack(bw, oerr.Error())
		}
		sess = ns
		s.stats.sessionsOpened.Add(1)
	} else {
		ns, displaced, ok := s.sessions.resume(token, conn)
		if !ok {
			return sess, writeNack(bw, fmt.Sprintf("unknown or expired session token %#x", token))
		}
		if displaced != nil && displaced != conn {
			// The session's previous connection is still up (a half-dead
			// link the client gave up on): force it out so exactly one
			// connection owns the replay state.
			displaced.Close()
		}
		sess = ns
		s.stats.sessionsResumed.Add(1)
	}
	if err := bw.WriteByte(ackOK); err != nil {
		return sess, err
	}
	if versioned {
		return sess, writeHelloReplyBodyV(bw, sess.state(), negotiated)
	}
	return sess, writeHelloReplyBody(bw, sess.state())
}

// serveCBatch handles one columnar batch frame (0x13). The server is
// deliberately stateless about protocol negotiation — it accepts CBATCH
// from any connection; only clients gate their encoder on the HELLO
// outcome. The route is in-frame (an empty name resolves to the default
// query). Sequencing follows the session grammar exactly as a 0x06
// batch: on a session connection seq must be ≥ 1 and dedupes through
// the same ring; outside one it must be 0. Every outcome — decode,
// duplicate, gap, admission shed — consumes the body before the first
// reply byte. Decoded columns land in the estimator through
// est.AddColumns, which for the built-in families is one stripe-lock
// hold for the whole frame and no per-report materialization.
func (s *Server) serveCBatch(br *bufio.Reader, bw *bufio.Writer, sc *decodeScratch, conn net.Conn, sess *connSession, laneOf func(*est.Query) est.Lane) error {
	nameLen, err := sc.readUint32(br)
	if err != nil {
		return err
	}
	if nameLen > maxNameLen {
		return fmt.Errorf("transport: string of %d bytes exceeds limit %d", nameLen, maxNameLen)
	}
	var q *est.Query
	if nameLen == 0 {
		q = s.reg.Default()
	} else {
		raw := sc.bytes(int(nameLen))
		if _, err := io.ReadFull(br, raw); err != nil {
			return err
		}
		q = s.reg.Get(string(raw))
	}
	var hdr [20]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return err
	}
	seq := binary.BigEndian.Uint64(hdr[:8])
	cnt := binary.BigEndian.Uint32(hdr[8:12])
	ndims := binary.BigEndian.Uint32(hdr[12:16])
	nvals := binary.BigEndian.Uint32(hdr[16:20])
	if cnt > maxBatch || ndims > maxPairs || nvals > maxPairs {
		return fmt.Errorf("transport: cbatch shape %d×(%d,%d) exceeds limits", cnt, ndims, nvals)
	}
	n, nd, nv := int(cnt), int(ndims), int(nvals)
	if err := checkCBatchShape(n, nd, nv); err != nil {
		return err
	}
	if sess != nil && seq == 0 {
		return fmt.Errorf("transport: sequenced cbatch with sequence 0")
	}
	if sess == nil && seq != 0 {
		return fmt.Errorf("transport: cbatch with sequence %d outside a session", seq)
	}
	s.stats.cbatchFrames.Add(1)
	class := seqApply
	if sess != nil {
		class = sess.seqClass(seq)
	}
	admitted := class == seqApply && s.admit(int64(cnt))
	if admitted {
		defer s.release(int64(cnt))
	}
	var dims []uint32
	var vals []float64
	if admitted {
		dims, vals, err = decodeCBatchBody(br, sc, n, nd, nv)
	} else {
		err = discardCBatchBody(br, sc, n, nd, nv)
	}
	if err != nil {
		return err
	}
	switch {
	case class == seqDup:
		s.stats.batchesDeduped.Add(1)
		return writeBatchReply(bw, ackOK, sess.dupAck(seq))
	case class == seqGap, !admitted:
		s.stats.batchesShed.Add(1)
		return bw.WriteByte(ackRetry)
	}
	if sess == nil {
		if q == nil {
			return writeBatchReply(bw, ackErr, 0)
		}
		accepted, _ := est.AddColumns(laneOf(q), n, nd, nv, dims, vals)
		return writeBatchReply(bw, ackOK, uint32(accepted))
	}
	apply := func() (int, error) { return 0, errNoQuery }
	if q != nil {
		lane := laneOf(q)
		apply = func() (int, error) { return est.AddColumns(lane, n, nd, nv, dims, vals) }
	}
	status, accepted, err := sess.commitApply(conn, seq, apply)
	if err != nil {
		return err
	}
	if status == ackRetry {
		s.stats.batchesShed.Add(1)
		return bw.WriteByte(ackRetry)
	}
	if q == nil {
		// The frame consumed its sequence slot (processed, zero accepted)
		// but the reply must carry the rejection, as the 0x06 path does.
		status = ackErr
	}
	return writeBatchReply(bw, status, accepted)
}

// serveSeqBatch handles one sequenced BATCH frame on a session
// connection: uint64 sequence, uint32 count, embedded report frames. The
// body is always consumed — decoded for the in-order case, discarded for
// duplicates, gaps and admission sheds — before any reply, so no outcome
// desyncs the connection. Unlike the streaming legacy path, the batch is
// fully decoded before it is applied: either the whole batch lands and
// the sequence advances, or nothing does, which is what makes a client
// replay after a mid-batch disconnect exact rather than approximate.
func (s *Server) serveSeqBatch(br *bufio.Reader, bw *bufio.Writer, sc *decodeScratch, conn net.Conn, sess *connSession, q *est.Query, laneOf func(*est.Query) est.Lane) error {
	var hdr [12]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return err
	}
	seq := binary.BigEndian.Uint64(hdr[:8])
	cnt := binary.BigEndian.Uint32(hdr[8:])
	if seq == 0 {
		return fmt.Errorf("transport: sequenced batch with sequence 0")
	}
	if cnt > maxBatch {
		return fmt.Errorf("transport: batch of %d reports exceeds limit %d", cnt, maxBatch)
	}
	// Read side first, writes only after: classify the sequence, then
	// either fully decode the body (the in-order, admitted case) or
	// discard it (duplicates, gaps, admission sheds) — every outcome
	// consumes the body before the first reply byte.
	class := sess.seqClass(seq)
	admitted := class == seqApply && s.admit(int64(cnt))
	if admitted {
		defer s.release(int64(cnt))
	}
	var reps []est.Report
	var err error
	if admitted {
		reps, err = readBatchAll(br, sc, cnt)
	} else {
		err = discardBatchReports(br, sc, cnt)
	}
	if err != nil {
		return err
	}
	switch {
	case class == seqDup:
		// Already applied: repeat the recorded acknowledgement. This is
		// the replay-suppression half of exactly-once.
		s.stats.batchesDeduped.Add(1)
		return writeBatchReply(bw, ackOK, sess.dupAck(seq))
	case class == seqGap, !admitted:
		// Either an earlier batch was shed and the client pipelined past
		// it (it cannot apply in order), or this batch itself failed
		// admission: NACK retryable, the client re-ships in order.
		s.stats.batchesShed.Add(1)
		return bw.WriteByte(ackRetry)
	}
	add := func([]est.Report) (int, error) { return 0, errNoQuery }
	if q != nil {
		add = laneOf(q).AddReports
	}
	status, accepted, err := sess.commit(conn, seq, reps, add)
	if err != nil {
		return err
	}
	if status == ackRetry {
		s.stats.batchesShed.Add(1)
		return bw.WriteByte(ackRetry)
	}
	if q == nil {
		// The batch consumed its sequence slot (it was processed —
		// rejected, with zero accepted), but the reply must carry the
		// rejection, exactly as the legacy path does.
		status = ackErr
	}
	return writeBatchReply(bw, status, accepted)
}

// serveLegacyBatch handles one unsequenced top-level BATCH frame: the
// original chunked-streaming ingest, now behind the in-flight admission
// gate. The body is consumed — streamed into the estimator when
// admitted, discarded when shed — before any reply is written.
func (s *Server) serveLegacyBatch(br *bufio.Reader, bw *bufio.Writer, sc *decodeScratch, q *est.Query, laneOf func(*est.Query) est.Lane) error {
	cnt, err := sc.readUint32(br)
	if err != nil {
		return err
	}
	if cnt > maxBatch {
		return fmt.Errorf("transport: batch of %d reports exceeds limit %d", cnt, maxBatch)
	}
	admitted := s.admit(int64(cnt))
	if admitted {
		defer s.release(int64(cnt))
	}
	var accepted uint32
	if !admitted {
		err = discardBatchReports(br, sc, cnt)
	} else if s.LegacyIngest {
		sink := func(est.Report) error { return errNoQuery }
		if q != nil {
			sink = q.AddReport
		}
		accepted, err = readBatchReports(br, cnt, sink)
	} else {
		add := func([]est.Report) (int, error) { return 0, errNoQuery }
		if q != nil {
			add = laneOf(q).AddReports
		}
		accepted, err = readBatchBuffered(br, sc, cnt, add)
	}
	if err != nil {
		return err
	}
	if !admitted {
		s.stats.batchesShed.Add(1)
		return bw.WriteByte(ackRetry)
	}
	status := byte(ackOK)
	if q == nil {
		status = ackErr
	}
	return writeBatchReply(bw, status, accepted)
}

// shutdown closes the listener and every open connection exactly once.
// Calling it before Listen is a safe no-op.
func (s *Server) shutdown() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	close(s.stop)
	ln := s.ln
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	return err
}

// Close stops accepting, closes open connections, and waits for the
// serving goroutines to drain. Closing before Listen, or twice, is safe.
func (s *Server) Close() error {
	err := s.shutdown()
	s.wg.Wait()
	return err
}

// drainPoll is how often Drain re-checks the open-connection count while
// waiting for clients to disconnect.
const drainPoll = 10 * time.Millisecond

// Drain is the graceful half of Close: it stops accepting new
// connections immediately, then waits for the open ones to finish their
// in-flight exchanges and disconnect on their own — every reply is
// flushed before the next read, so a connection is always between whole
// exchanges when it goes away. When ctx expires first, the remaining
// connections are force-closed and ctx's error is returned; either way
// the serving goroutines have fully drained when Drain returns, so the
// caller can take a final checkpoint knowing no report will land after
// it. Like Close, Drain finishes the server for good — draining before
// Listen leaves it unable to serve, and draining after Close is a
// no-op.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	ln := s.ln
	s.ln = nil // a later Close must not double-close
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	var err error
loop:
	for {
		s.mu.Lock()
		n := len(s.conns)
		closed := s.closed
		s.mu.Unlock()
		if n == 0 || closed {
			break
		}
		select {
		case <-ctx.Done():
			err = ctx.Err()
			break loop
		case <-s.stop:
			break loop
		case <-time.After(drainPoll):
		}
	}
	s.shutdown()
	s.wg.Wait()
	return err
}
