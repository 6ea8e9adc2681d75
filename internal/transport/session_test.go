package transport

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/hdr4me/hdr4me/internal/highdim"
	"github.com/hdr4me/hdr4me/internal/ldp"
)

// tableConn is a stand-in owner for table-level tests: the table only
// compares connections, it never reads or writes them.
type tableConn struct{ net.Conn }

func newTableConn() net.Conn { return &tableConn{} }

const testTTL = time.Minute

// checkDetachedList asserts the table's invariants: the detached list
// runs through back-linked sessions that are in the map and owned by no
// connection, and every detached session in the map is on it.
func checkDetachedList(t *testing.T, tab *sessionTable) {
	t.Helper()
	tab.mu.Lock()
	defer tab.mu.Unlock()
	queued := 0
	var prev *connSession
	for ss := tab.head; ss != nil; prev, ss = ss, ss.next {
		queued++
		if ss.prev != prev {
			t.Fatalf("session %#x: prev link broken", ss.token)
		}
		if tab.m[ss.token] != ss {
			t.Fatalf("queued session %#x is not in the table", ss.token)
		}
		ss.mu.Lock()
		owned := ss.conn != nil
		ss.mu.Unlock()
		if owned {
			t.Fatalf("queued session %#x is attached", ss.token)
		}
	}
	if tab.tail != prev {
		t.Fatal("tail is not the last queued session")
	}
	detached := 0
	for _, ss := range tab.m {
		ss.mu.Lock()
		if ss.conn == nil {
			detached++
		}
		ss.mu.Unlock()
	}
	if detached != queued {
		t.Fatalf("%d detached sessions in the table, %d queued for expiry", detached, queued)
	}
}

func liveSessions(tab *sessionTable) int {
	live, _ := tab.counts()
	return live
}

func mustOpen(t *testing.T, tab *sessionTable, conn net.Conn) *connSession {
	t.Helper()
	ss, err := tab.open(conn)
	if err != nil {
		t.Fatal(err)
	}
	return ss
}

// TestSessionExpiresAfterTTL: a detached session survives a sweep at
// exactly the TTL, is dropped by the first one past it, and a resume of
// its token is then refused — over the wire, with the "unknown or
// expired" NACK.
func TestSessionExpiresAfterTTL(t *testing.T) {
	var tab sessionTable
	c1 := newTableConn()
	ss := mustOpen(t, &tab, c1)
	t0 := time.Now()
	tab.detach(ss, c1, t0)
	checkDetachedList(t, &tab)

	tab.sweep(t0.Add(testTTL), testTTL)
	if liveSessions(&tab) != 1 {
		t.Fatal("session dropped at exactly the TTL; it must outlive it")
	}
	tab.sweep(t0.Add(testTTL+time.Nanosecond), testTTL)
	if live, evicted := tab.counts(); live != 0 || evicted != 1 {
		t.Fatalf("after the TTL: live %d evicted %d; want 0 and 1", live, evicted)
	}
	checkDetachedList(t, &tab)
	if _, _, ok := tab.resume(ss.token, newTableConn()); ok {
		t.Fatal("resume of an expired session succeeded")
	}

	// The same over the wire, with the server's table driven past the TTL.
	proto, err := highdim.NewProtocol(ldp.Laplace{}, 1, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv, addr := startTestServer(t, proto)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	info, err := cl.Hello(0)
	if err != nil {
		t.Fatal(err)
	}
	cl.Close()
	waitFor(t, func() bool { return detachedCount(&srv.sessions) == 1 })
	srv.sessions.sweep(time.Now().Add(srv.sessionTTL()+time.Second), srv.sessionTTL())
	if st := srv.Stats(); st.SessionsLive != 0 || st.SessionsEvicted != 1 {
		t.Fatalf("stats after expiry: live %d evicted %d; want 0 and 1", st.SessionsLive, st.SessionsEvicted)
	}
	cl2, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	_, err = cl2.Hello(info.Token)
	if !errors.Is(err, ErrSessionRejected) || !strings.Contains(err.Error(), "unknown or expired") {
		t.Fatalf("resume of an expired token = %v; want ErrSessionRejected naming it unknown or expired", err)
	}
}

// detachedCount is how many sessions sit on the table's expiry list.
func detachedCount(tab *sessionTable) int {
	tab.mu.Lock()
	defer tab.mu.Unlock()
	n := 0
	for ss := tab.head; ss != nil; ss = ss.next {
		n++
	}
	return n
}

// waitFor polls until ok holds: a connection's close reaches the server
// asynchronously.
func waitFor(t *testing.T, ok func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !ok() {
		if time.Now().After(deadline) {
			t.Fatal("condition never held")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSessionAttachedNeverExpires: a session owned by a connection is
// not on the expiry list, however old — both freshly opened and resumed.
func TestSessionAttachedNeverExpires(t *testing.T) {
	var tab sessionTable
	c1, c2 := newTableConn(), newTableConn()
	mustOpen(t, &tab, c1)
	resumed := mustOpen(t, &tab, c2)
	t0 := time.Now()
	tab.detach(resumed, c2, t0)
	if _, _, ok := tab.resume(resumed.token, newTableConn()); !ok {
		t.Fatal("resume failed")
	}
	checkDetachedList(t, &tab)
	tab.sweep(t0.Add(1000*testTTL), testTTL)
	if live, evicted := tab.counts(); live != 2 || evicted != 0 {
		t.Fatalf("attached sessions swept: live %d evicted %d; want 2 and 0", live, evicted)
	}
}

// TestSessionResumeRestartsClock: resume takes the session off the
// expiry list and the next detach re-queues it at the new time, so a
// sweep that would have expired it from its old position keeps it.
func TestSessionResumeRestartsClock(t *testing.T) {
	var tab sessionTable
	c1, c2, c3 := newTableConn(), newTableConn(), newTableConn()
	ss := mustOpen(t, &tab, c1)
	other := mustOpen(t, &tab, c3)
	t0 := time.Now()
	tab.detach(ss, c1, t0)
	tab.detach(other, c3, t0.Add(testTTL/4))
	if _, _, ok := tab.resume(ss.token, c2); !ok {
		t.Fatal("resume failed")
	}
	t1 := t0.Add(testTTL / 2)
	tab.detach(ss, c2, t1)
	checkDetachedList(t, &tab)

	tab.sweep(t0.Add(testTTL+time.Second), testTTL)
	if liveSessions(&tab) != 2 {
		t.Fatal("session expired from its pre-resume position")
	}
	tab.sweep(t0.Add(testTTL/4+testTTL+time.Second), testTTL)
	if _, _, ok := tab.resume(other.token, newTableConn()); ok {
		t.Fatal("the older detached session outlived its TTL")
	}
	if liveSessions(&tab) != 1 {
		t.Fatal("the re-detached session expired early")
	}
	tab.sweep(t1.Add(testTTL+time.Second), testTTL)
	if live, evicted := tab.counts(); live != 0 || evicted != 2 {
		t.Fatalf("live %d evicted %d; want 0 and 2", live, evicted)
	}
	checkDetachedList(t, &tab)
}

// TestSessionDisplacedDetachDoesNotRequeue: once a resume moves the
// session to a new connection, the displaced owner's teardown must not
// queue it for expiry — it is still attached.
func TestSessionDisplacedDetachDoesNotRequeue(t *testing.T) {
	var tab sessionTable
	c1, c2 := newTableConn(), newTableConn()
	ss := mustOpen(t, &tab, c1)
	_, displaced, ok := tab.resume(ss.token, c2)
	if !ok || displaced != c1 {
		t.Fatalf("resume: displaced %v ok %v; want the first connection", displaced, ok)
	}
	t0 := time.Now()
	tab.detach(ss, c1, t0)
	if n := detachedCount(&tab); n != 0 {
		t.Fatalf("displaced owner's detach queued the session (%d queued)", n)
	}
	checkDetachedList(t, &tab)
	tab.sweep(t0.Add(1000*testTTL), testTTL)
	if liveSessions(&tab) != 1 {
		t.Fatal("session owned by its new connection expired")
	}
	tab.detach(ss, c2, t0)
	if n := detachedCount(&tab); n != 1 {
		t.Fatalf("the owner's detach queued %d sessions; want 1", n)
	}
	// A second detach by the same, now former, owner changes nothing.
	tab.detach(ss, c2, t0.Add(time.Second))
	checkDetachedList(t, &tab)
	if n := detachedCount(&tab); n != 1 {
		t.Fatalf("a repeated detach queued the session twice (%d queued)", n)
	}
}

// TestSessionReplaceDropsOnlyUnsequenced: replace drops a session that
// never applied a batch and detaches (keeps for resume) one that did.
func TestSessionReplaceDropsOnlyUnsequenced(t *testing.T) {
	var tab sessionTable
	c1 := newTableConn()
	fresh := mustOpen(t, &tab, c1)
	now := time.Now()
	tab.replace(fresh, c1, now)
	if live, evicted := tab.counts(); live != 0 || evicted != 1 {
		t.Fatalf("replacing an unsequenced session: live %d evicted %d; want 0 and 1", live, evicted)
	}
	used := mustOpen(t, &tab, c1)
	if _, _, err := used.commitApply(c1, 1, func() (int, error) { return 3, nil }); err != nil {
		t.Fatal(err)
	}
	tab.replace(used, c1, now)
	if live, evicted := tab.counts(); live != 1 || evicted != 1 {
		t.Fatalf("replacing a sequenced session: live %d evicted %d; want 1 and 1", live, evicted)
	}
	checkDetachedList(t, &tab)
	// A connection that no longer owns the session replaces nothing.
	taken := mustOpen(t, &tab, c1)
	if _, _, ok := tab.resume(taken.token, newTableConn()); !ok {
		t.Fatal("resume failed")
	}
	tab.replace(taken, c1, now)
	if live, _ := tab.counts(); live != 2 {
		t.Fatalf("a displaced owner's HELLO(0) dropped the session (live %d, want 2)", live)
	}
	checkDetachedList(t, &tab)
}

// TestSessionTableConcurrent runs open, resume, detach, replace and
// sweep from many goroutines (meant for -race) and then checks the
// table's invariants.
func TestSessionTableConcurrent(t *testing.T) {
	var tab sessionTable
	base := time.Now()
	const workers, rounds = 8, 300
	tokens := make(chan uint64, workers*rounds)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range rounds {
				conn := newTableConn()
				now := base.Add(time.Duration(w*rounds+i) * time.Millisecond)
				var ss *connSession
				select {
				case tok := <-tokens:
					var ok bool
					if ss, _, ok = tab.resume(tok, conn); !ok {
						continue
					}
				default:
					var err error
					if ss, err = tab.open(conn); err != nil {
						t.Error(err)
						return
					}
				}
				if i%3 == 0 {
					ss.commitApply(conn, ss.state().LastSeq+1, func() (int, error) { return 1, nil })
				}
				if i%5 == 0 {
					tab.replace(ss, conn, now)
				} else {
					tab.detach(ss, conn, now)
				}
				tokens <- ss.token
				tab.sweep(now, 50*time.Millisecond)
			}
		}()
	}
	wg.Wait()
	checkDetachedList(t, &tab)
	tab.sweep(base.Add(time.Hour), 50*time.Millisecond)
	if live := liveSessions(&tab); live != 0 {
		t.Fatalf("%d sessions outlived a sweep past every detach", live)
	}
	checkDetachedList(t, &tab)
}

// TestHelloZeroReplacesUnsequencedSession: a connection looping HELLO(0)
// without ever sending a batch holds one session, not one per HELLO.
func TestHelloZeroReplacesUnsequencedSession(t *testing.T) {
	proto, err := highdim.NewProtocol(ldp.Laplace{}, 1, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv, addr := startTestServer(t, proto)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	const hellos = 10000
	for i := range hellos {
		if _, err := cl.Hello(0); err != nil {
			t.Fatalf("Hello(0) #%d: %v", i, err)
		}
	}
	st := srv.Stats()
	if st.SessionsLive != 1 || st.SessionsOpened != hellos || st.SessionsEvicted != hellos-1 {
		t.Fatalf("after %d HELLO(0): live %d opened %d evicted %d; want 1, %d, %d",
			hellos, st.SessionsLive, st.SessionsOpened, st.SessionsEvicted, hellos, hellos-1)
	}
}

// BenchmarkHello times one HELLO(0) round trip on a collector already
// holding n detached sessions. Each HELLO replaces the previous
// (unsequenced) one, so the table stays at n+1 sessions; ns/op must not
// grow with n.
func BenchmarkHello(b *testing.B) {
	for _, n := range []int{0, 2000, 20000} {
		b.Run(fmt.Sprintf("detached=%d", n), func(b *testing.B) {
			proto, err := highdim.NewProtocol(ldp.Laplace{}, 1, 4, 1)
			if err != nil {
				b.Fatal(err)
			}
			srv := NewServer(highdim.NewAggregator(proto))
			srv.Logf = func(string, ...any) {}
			now := time.Now()
			for range n {
				conn := newTableConn()
				ss, err := srv.sessions.open(conn)
				if err != nil {
					b.Fatal(err)
				}
				srv.sessions.detach(ss, conn, now)
			}
			bound, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			cl, err := Dial(bound.String())
			if err != nil {
				b.Fatal(err)
			}
			defer cl.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				if _, err := cl.Hello(0); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if live := srv.Stats().SessionsLive; live != n+1 {
				b.Fatalf("sessions live = %d; want %d", live, n+1)
			}
		})
	}
}
