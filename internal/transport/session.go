package transport

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/hdr4me/hdr4me/internal/est"
)

// sessionTTLDefault is how long a detached replay session (its client
// disconnected, not yet resumed) is retained before a HELLO's sweep
// drops it. Override per server with Server.SessionTTL.
const sessionTTLDefault = 2 * time.Minute

// ackRingSize bounds how many recent per-sequence accepted counts a
// session remembers. A duplicate batch older than the ring is still
// detected (seq <= lastSeq) and acked, just with an accepted count of
// zero — the client's accounting is reconciled by the HELLO reply's
// cumulative total anyway, so the ring only improves per-batch fidelity.
const ackRingSize = 64

// ackRec is one remembered batch outcome: the sequence number and how
// many of its reports the estimator accepted.
type ackRec struct {
	seq      uint64
	accepted uint32
}

// Sequence classes for one incoming sequenced batch.
const (
	seqApply = iota // seq == lastSeq+1: the next batch, apply it
	seqDup          // seq <= lastSeq: already applied, ack from the record
	seqGap          // seq > lastSeq+1: an earlier batch was shed, NACK retryable
)

// connSession is the server half of one reconnecting client's
// exactly-once contract: the session token, the highest batch sequence
// number durably applied, and the cumulative accepted-report count the
// HELLO reply reconciles client accounting with. Exactly one connection
// owns a session at a time — a resume displaces (and closes) the
// previous owner, and a displaced connection's in-flight batch aborts at
// commit instead of racing the successor's replay.
type connSession struct {
	token uint64

	mu       sync.Mutex
	conn     net.Conn // owning connection; nil while detached
	lastSeq  uint64   // highest batch sequence applied (sheds never advance it)
	accepted uint64   // cumulative reports accepted across the session
	acks     [ackRingSize]ackRec

	// Detached-list state, guarded by the table's mu (see sessionTable).
	prev, next *connSession
	detachedAt time.Time
}

// state snapshots the fields a HELLO reply carries.
func (ss *connSession) state() helloReply {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return helloReply{Token: ss.token, LastSeq: ss.lastSeq, Accepted: ss.accepted}
}

// seqClass classifies seq against the session's applied prefix. Only the
// owning connection sends batches, so a seqApply answer can only be
// invalidated by a takeover — which commit re-checks under the same lock.
func (ss *connSession) seqClass(seq uint64) int {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	switch {
	case seq == ss.lastSeq+1:
		return seqApply
	case seq <= ss.lastSeq:
		return seqDup
	default:
		return seqGap
	}
}

// dupAck returns the recorded accepted count for an already-applied
// sequence, or zero when the record has rotated out of the ring.
func (ss *connSession) dupAck(seq uint64) uint32 {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if rec := ss.acks[seq%ackRingSize]; rec.seq == seq {
		return rec.accepted
	}
	return 0
}

// commit atomically applies one fully decoded sequenced batch: under the
// session lock it re-checks that conn still owns the session and that
// seq is still the next in line, then accumulates the whole slice and
// advances lastSeq. Because decode happened first, a connection dying
// mid-batch applies nothing — there is no partially applied batch for a
// replay to double-count. A non-nil error means the connection lost the
// session to a takeover and must abort without replying.
func (ss *connSession) commit(conn net.Conn, seq uint64, reps []est.Report, add func([]est.Report) (int, error)) (status byte, accepted uint32, err error) {
	return ss.commitApply(conn, seq, func() (int, error) { return add(reps) })
}

// commitApply is commit with the accumulation abstracted to a closure —
// the shared exactly-once core for both sequenced batch shapes (0x06
// applies decoded report slices, 0x13 applies decoded columns). apply
// runs at most once, under the session lock, only when conn still owns
// the session and seq is the next in line.
func (ss *connSession) commitApply(conn net.Conn, seq uint64, apply func() (int, error)) (status byte, accepted uint32, err error) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.conn != conn {
		return 0, 0, fmt.Errorf("transport: session %#x taken over mid-batch: %w", ss.token, net.ErrClosed)
	}
	switch {
	case seq == ss.lastSeq+1:
		n, _ := apply()
		ss.lastSeq = seq
		ss.accepted += uint64(n)
		ss.acks[seq%ackRingSize] = ackRec{seq: seq, accepted: uint32(n)}
		return ackOK, uint32(n), nil
	case seq <= ss.lastSeq:
		if rec := ss.acks[seq%ackRingSize]; rec.seq == seq {
			return ackOK, rec.accepted, nil
		}
		return ackOK, 0, nil
	default:
		return ackRetry, 0, nil
	}
}

// sessionTable maps live session tokens to their state. Its detached
// sessions (no owning connection) also sit on an intrusive list in
// detach order, oldest first, so expiry is a pop from the head: each
// HELLO sweeps only the sessions that have actually expired, O(1)
// amortized whatever the table's size. A session expires once it has
// been detached for longer than the TTL; an attached session is never on
// the list, so it never expires. Lock order: t.mu before ss.mu. The list
// links and detachedAt are guarded by t.mu, and ss.conn changes only
// under both locks, so either lock is enough to read it.
type sessionTable struct {
	mu      sync.Mutex
	m       map[uint64]*connSession
	head    *connSession // oldest detached session
	tail    *connSession // newest detached session
	evicted uint64       // sessions dropped by expiry or replacement
}

// open mints a fresh session owned by conn under a
// cryptographically random nonzero token.
func (t *sessionTable) open(conn net.Conn) (*connSession, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.m == nil {
		t.m = make(map[uint64]*connSession)
	}
	for {
		token, err := newSessionToken()
		if err != nil {
			return nil, err
		}
		if _, dup := t.m[token]; dup {
			continue
		}
		ss := &connSession{token: token, conn: conn}
		t.m[token] = ss
		return ss, nil
	}
}

// resume re-attaches conn to the token's session, returning the
// connection it displaced (nil when the session was detached). ok is
// false for unknown or expired tokens.
func (t *sessionTable) resume(token uint64, conn net.Conn) (ss *connSession, displaced net.Conn, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	ss = t.m[token]
	if ss == nil {
		return nil, nil, false
	}
	t.unlink(ss)
	ss.mu.Lock()
	displaced = ss.conn
	ss.conn = conn
	ss.mu.Unlock()
	return ss, displaced, true
}

// detach releases conn's ownership of the session, if it still holds
// it, and queues the session for expiry as detached at now. A displaced
// owner no longer holds the session, so its detach changes nothing.
func (t *sessionTable) detach(ss *connSession, conn net.Conn, now time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := ss.release(conn); ok {
		t.enqueue(ss, now)
	}
}

// replace releases conn's session ahead of a HELLO(0) on the same
// connection. A session that never applied a batch holds nothing a
// resume could reconcile, so it is dropped at once instead of living out
// the TTL; any other session is detached at now.
func (t *sessionTable) replace(ss *connSession, conn net.Conn, now time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	lastSeq, ok := ss.release(conn)
	if !ok {
		return
	}
	if lastSeq == 0 {
		delete(t.m, ss.token)
		t.evicted++
		return
	}
	t.enqueue(ss, now)
}

// release clears ss.conn if conn still owns the session, reporting
// whether it did and the last sequence the session applied. The table's
// mu must be held (see sessionTable).
func (ss *connSession) release(conn net.Conn) (lastSeq uint64, ok bool) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.conn != conn {
		return 0, false
	}
	ss.conn = nil
	return ss.lastSeq, true
}

// enqueue appends a just-released session to the tail of the detached
// list, stamped now. t.mu must be held.
func (t *sessionTable) enqueue(ss *connSession, now time.Time) {
	ss.detachedAt = now
	ss.prev, ss.next = t.tail, nil
	if t.tail != nil {
		t.tail.next = ss
	} else {
		t.head = ss
	}
	t.tail = ss
}

// sweep drops the sessions detached for longer than ttl as of now. The
// list is in detach order, so it stops at the first session still within
// the TTL. Callers read their clock just before taking t.mu, so two
// racing detaches may queue out of clock order by that gap; the later
// one then expires at most that much late, never early.
func (t *sessionTable) sweep(now time.Time, ttl time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for ss := t.head; ss != nil && now.Sub(ss.detachedAt) > ttl; ss = t.head {
		t.unlink(ss)
		delete(t.m, ss.token)
		t.evicted++
	}
}

// unlink takes ss off the detached list if it is on it. t.mu must be
// held.
func (t *sessionTable) unlink(ss *connSession) {
	if ss.prev == nil && t.head != ss {
		return // not queued
	}
	if ss.prev != nil {
		ss.prev.next = ss.next
	} else {
		t.head = ss.next
	}
	if ss.next != nil {
		ss.next.prev = ss.prev
	} else {
		t.tail = ss.prev
	}
	ss.prev, ss.next = nil, nil
}

// counts returns how many sessions the table holds and how many it has
// dropped by expiry or replacement.
func (t *sessionTable) counts() (live int, evicted uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.m), t.evicted
}

// newSessionToken draws a nonzero random token (zero is the
// open-a-new-session sentinel on the wire). Tokens live in the low 48
// bits of the HELLO token field — the high 16 carry the versioned-HELLO
// flags and protocol version (see cbatch.go) — so 48 bits is the full
// token space, still far beyond collision range for the session counts
// one collector holds.
func newSessionToken() (uint64, error) {
	var b [8]byte
	for {
		if _, err := rand.Read(b[:]); err != nil {
			return 0, err
		}
		if token := binary.BigEndian.Uint64(b[:]) & helloTokenMask; token != 0 {
			return token, nil
		}
	}
}
