// Command overloadcheck is the wire-level driver of the overload e2e
// (scripts/overload_e2e.sh). Each mode runs against a live ldpcollect
// started with the matching hardening flags and a -pprof side listener,
// and exits non-zero when a graceful-degradation assertion fails:
//
//	overloadcheck -mode shed -addr HOST:PORT -stats HOST:PORT -conns N
//	    against -max-conns N: hold N probing connections, require an
//	    (N+1)th to be NACKed retryable (ErrCollectorOverloaded), require
//	    every held connection to stay responsive while the shed happens,
//	    and require a freed slot to admit a retry.
//	overloadcheck -mode inflight -addr HOST:PORT -stats HOST:PORT
//	    against -max-inflight 1000 -idle-timeout 2s: a raw staller
//	    declares a 900-report BATCH and never sends the reports, holding
//	    the admission gate; a second client's 200-report batch must be
//	    shed fast (not queued behind the staller), and a reconnecting
//	    buffered client must converge to full acceptance once the
//	    staller's deadline trips and releases the reservation.
//	overloadcheck -mode stall -addr HOST:PORT -stats HOST:PORT -bound D
//	    against -idle-timeout well under D: a connection stalled
//	    mid-frame must be force-closed within D, with the trip counted.
//	overloadcheck -mode hello-flood -addr HOST:PORT -stats HOST:PORT
//	    against a fresh collector: 20000 sequential devices each dial,
//	    open a replay session with a versioned HELLO(0) and close. The
//	    median HELLO round trip of the last tenth must stay within 2x
//	    that of the first tenth (HELLO cost must not grow with the
//	    sessions held), and the collector must report every device's
//	    session live.
//
// Every mode cross-checks the collector's failure counters over the
// /debug/collector JSON endpoint on the -pprof listener.
package main

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"slices"
	"time"

	hdr4me "github.com/hdr4me/hdr4me"
)

// frameBatch is the BATCH wire frame byte (internal/transport/wire.go);
// the staller writes it raw so it can hold a half-sent batch open, which
// no well-behaved client API will do.
const frameBatch = 0x06

// The hello-flood's size, and how far its last tenth's median HELLO may
// exceed its first tenth's.
const (
	helloFloodDevices = 20000
	helloLatencySlop  = 2
)

func main() {
	mode := flag.String("mode", "", "shed | inflight | stall | hello-flood")
	addr := flag.String("addr", "", "collector address")
	stats := flag.String("stats", "", "pprof side-listener address serving /debug/collector")
	conns := flag.Int("conns", 2, "the collector's -max-conns value (shed)")
	bound := flag.Duration("bound", 3*time.Second, "force-close deadline for a stalled connection (stall)")
	flag.Parse()

	var err error
	switch *mode {
	case "shed":
		err = shed(*addr, *stats, *conns)
	case "inflight":
		err = inflight(*addr, *stats)
	case "stall":
		err = stall(*addr, *stats, *bound)
	case "hello-flood":
		err = helloFlood(*addr, *stats)
	default:
		err = fmt.Errorf("unknown -mode %q", *mode)
	}
	if err != nil {
		log.Fatalf("overloadcheck %s: %v", *mode, err)
	}
	fmt.Printf("overloadcheck %s: ok\n", *mode)
}

// probeReport is a minimal in-range report for the collector's default
// query; Send carries an ack, so a shed connection's retryable NACK
// surfaces as ErrCollectorOverloaded rather than a bare EOF.
func probeReport() hdr4me.Report {
	return hdr4me.Report{Dims: []uint32{0}, Values: []float64{0.5}}
}

func probeReports(n int) []hdr4me.Report {
	reps := make([]hdr4me.Report, n)
	for i := range reps {
		reps[i] = probeReport()
	}
	return reps
}

// dialAndProbe dials and completes one acked exchange, so admission (or
// the shed NACK) is observed before the connection counts as held.
func dialAndProbe(addr string) (*hdr4me.CollectorClient, error) {
	cl, err := hdr4me.DialCollector(addr)
	if err != nil {
		return nil, fmt.Errorf("dial: %w", err)
	}
	cl.SetTimeout(5 * time.Second)
	if err := cl.Send(probeReport()); err != nil {
		cl.Close()
		return nil, err
	}
	return cl, nil
}

// fetchStats pulls the collector's failure counters from the -pprof
// side listener.
func fetchStats(statsAddr string) (hdr4me.CollectorStats, error) {
	var st hdr4me.CollectorStats
	resp, err := http.Get("http://" + statsAddr + "/debug/collector")
	if err != nil {
		return st, fmt.Errorf("fetch /debug/collector: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("/debug/collector: HTTP %s", resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("decode /debug/collector: %w", err)
	}
	return st, nil
}

// shed: fill the connection gate, require the next connection to be
// NACKed retryable while the held ones stay responsive, and require a
// freed slot to admit a retry.
func shed(addr, statsAddr string, maxConns int) error {
	held := make([]*hdr4me.CollectorClient, 0, maxConns)
	defer func() {
		for _, cl := range held {
			cl.Close()
		}
	}()
	for i := 0; i < maxConns; i++ {
		cl, err := dialAndProbe(addr)
		if err != nil {
			return fmt.Errorf("held connection %d: %w", i+1, err)
		}
		held = append(held, cl)
	}
	if _, err := dialAndProbe(addr); !errors.Is(err, hdr4me.ErrCollectorOverloaded) {
		return fmt.Errorf("connection %d error = %v; want ErrCollectorOverloaded", maxConns+1, err)
	}
	fmt.Printf("connection %d shed with the retryable NACK\n", maxConns+1)

	// Degradation must be graceful: the shed must not have cost the
	// admitted connections their responsiveness.
	for i, cl := range held {
		start := time.Now()
		if err := cl.Send(probeReport()); err != nil {
			return fmt.Errorf("held connection %d unresponsive after shed: %w", i+1, err)
		}
		if elapsed := time.Since(start); elapsed > 2*time.Second {
			return fmt.Errorf("held connection %d ack took %v after shed", i+1, elapsed)
		}
	}
	st, err := fetchStats(statsAddr)
	if err != nil {
		return err
	}
	if st.ConnsShed < 1 {
		return fmt.Errorf("stats = %+v; want ConnsShed >= 1", st)
	}
	fmt.Printf("held connections responsive; collector counts %d shed\n", st.ConnsShed)

	// A freed slot re-admits. The shed connection's slot release is
	// asynchronous, so retry briefly.
	held[0].Close()
	held = held[1:]
	deadline := time.Now().Add(10 * time.Second)
	for {
		cl, err := dialAndProbe(addr)
		if err == nil {
			cl.Close()
			fmt.Println("freed slot admitted a retry")
			return nil
		}
		if !errors.Is(err, hdr4me.ErrCollectorOverloaded) {
			return fmt.Errorf("retry after freed slot: %w", err)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("no connection admitted after a slot was freed")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// inflight: hold most of the admission gate with a half-sent batch,
// require a competing batch to be shed fast, then require a
// reconnecting buffered client to converge once the staller's idle
// deadline trips and the reservation is released.
func inflight(addr, statsAddr string) error {
	// The staller declares 900 reports and sends none of them: the
	// server reserves the count up front (so a huge batch cannot flood
	// the estimator before being counted) and blocks reading reports
	// until its idle deadline force-closes the connection.
	staller, err := net.Dial("tcp", addr)
	if err != nil {
		return fmt.Errorf("staller dial: %w", err)
	}
	defer staller.Close()
	hdr := make([]byte, 5)
	hdr[0] = frameBatch
	binary.BigEndian.PutUint32(hdr[1:], 900)
	if _, err := staller.Write(hdr); err != nil {
		return fmt.Errorf("staller write: %w", err)
	}
	// Give the server a beat to read the header and take the reservation.
	time.Sleep(200 * time.Millisecond)

	// A 200-report batch (900+200 > 1000) must be shed immediately, not
	// queued behind the staller.
	cl, err := hdr4me.DialCollector(addr)
	if err != nil {
		return err
	}
	defer cl.Close()
	cl.SetTimeout(5 * time.Second)
	start := time.Now()
	if _, err := cl.SendBatch(probeReports(200)); !errors.Is(err, hdr4me.ErrCollectorOverloaded) {
		return fmt.Errorf("competing batch error = %v; want ErrCollectorOverloaded", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		return fmt.Errorf("shed took %v; must not wait behind the stalled batch", elapsed)
	}
	st, err := fetchStats(statsAddr)
	if err != nil {
		return err
	}
	if st.BatchesShed < 1 {
		return fmt.Errorf("stats = %+v; want BatchesShed >= 1", st)
	}
	fmt.Printf("competing batch shed fast; collector counts %d batches shed\n", st.BatchesShed)

	// A reconnecting buffered client keeps retrying the shed batch with
	// backoff; once the staller's idle deadline trips (the collector
	// runs with -idle-timeout 2s) the reservation is released and the
	// retries converge to full acceptance.
	bc, err := hdr4me.DialCollectorBuffered(addr,
		hdr4me.WithBatchSize(200), hdr4me.WithReconnect(nil), hdr4me.WithReconnectLimit(100))
	if err != nil {
		return err
	}
	for _, rep := range probeReports(200) {
		if err := bc.Add(rep); err != nil {
			return fmt.Errorf("buffered Add: %w", err)
		}
	}
	if err := bc.Flush(); err != nil {
		return fmt.Errorf("buffered client did not converge past the overload: %w", err)
	}
	if got := bc.Accepted(); got != 200 {
		return fmt.Errorf("buffered Accepted() = %d; want 200 after retries", got)
	}
	if err := bc.Close(); err != nil {
		return err
	}
	fmt.Println("reconnecting buffered client converged to 200/200 accepted")
	return nil
}

// stall: a connection stalled mid-frame must be force-closed within
// bound, and the trip must be counted.
func stall(addr, statsAddr string, bound time.Duration) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	// Half a BATCH header: one frame byte plus one of the four count
	// bytes, then silence — a client that died mid-write.
	if _, err := conn.Write([]byte{frameBatch, 0x00}); err != nil {
		return err
	}
	start := time.Now()
	if err := conn.SetReadDeadline(start.Add(bound)); err != nil {
		return err
	}
	// The read returns only when the server force-closes the connection;
	// our own deadline expiring means it never did.
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		return fmt.Errorf("server wrote instead of force-closing a stalled connection")
	} else if ne := net.Error(nil); errors.As(err, &ne) && ne.Timeout() {
		return fmt.Errorf("stalled connection not force-closed within %v", bound)
	}
	elapsed := time.Since(start)
	st, err := fetchStats(statsAddr)
	if err != nil {
		return err
	}
	if st.DeadlinesTripped < 1 {
		return fmt.Errorf("stats = %+v; want DeadlinesTripped >= 1", st)
	}
	fmt.Printf("stalled connection force-closed after %v; collector counts %d deadline trips\n",
		elapsed.Round(time.Millisecond), st.DeadlinesTripped)
	return nil
}

// helloFlood: sequential devices each dial, open a session with a
// versioned HELLO(0) and close without sending a batch, so every session
// stays live (detached) on the collector. A HELLO must cost the same with
// all those sessions held as with none.
func helloFlood(addr, statsAddr string) error {
	const n = helloFloodDevices
	lat := make([]time.Duration, n)
	for i := range lat {
		d, err := oneHello(addr)
		if err != nil {
			return fmt.Errorf("device %d: %w", i, err)
		}
		lat[i] = d
	}
	first, last := medianOf(lat[:n/10]), medianOf(lat[n-n/10:])
	fmt.Printf("%d HELLOs: median round trip %v in the first tenth, %v in the last\n",
		n, first.Round(time.Microsecond), last.Round(time.Microsecond))
	if last > helloLatencySlop*first {
		return fmt.Errorf("HELLO slowed as sessions accumulated: last-tenth median %v > %dx first-tenth %v",
			last, helloLatencySlop, first)
	}
	st, err := fetchStats(statsAddr)
	if err != nil {
		return err
	}
	if st.SessionsLive != n || st.SessionsOpened != uint64(n) || st.SessionsEvicted != 0 {
		return fmt.Errorf("stats: sessions live %d, opened %d, evicted %d; want %d, %d, 0",
			st.SessionsLive, st.SessionsOpened, st.SessionsEvicted, n, n)
	}
	fmt.Printf("collector holds %d sessions live, none evicted\n", st.SessionsLive)
	return nil
}

// oneHello dials, times one HELLO(0) round trip and closes. The client
// is not pinned to protocol v1, so its HELLO is the versioned one.
func oneHello(addr string) (time.Duration, error) {
	cl, err := hdr4me.DialCollector(addr)
	if err != nil {
		return 0, err
	}
	defer cl.Close()
	cl.SetTimeout(5 * time.Second)
	start := time.Now()
	if _, err := cl.Hello(0); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

// medianOf returns the median of ds, leaving ds untouched.
func medianOf(ds []time.Duration) time.Duration {
	s := slices.Clone(ds)
	slices.Sort(s)
	return s[len(s)/2]
}
