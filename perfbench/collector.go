package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	hdr4me "github.com/hdr4me/hdr4me"
	"github.com/hdr4me/hdr4me/internal/epoch"
	"github.com/hdr4me/hdr4me/internal/transport"
)

// subSeed derives the seed of one named input stream from the run seed.
func subSeed(seed uint64, name string, i uint64) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return hdr4me.NewRNG(seed).Child(h.Sum64()).Child(i).Seed()
}

// collector is one in-process collector under test: a registry of named
// queries served over 127.0.0.1 TCP.
type collector struct {
	srv    *hdr4me.CollectorServer
	reg    *hdr4me.Registry
	acct   *hdr4me.Accountant
	addr   string
	dir    string // checkpoint directory, inside the run's scratch dir
	epochs bool   // registry builds epoch rings
	cfg    hdr4me.EpochConfig
	logs   atomic.Int64 // connection errors the server logged
	saveSp span         // OnCheckpoint hook time (persist.save)
}

// newRegistry builds an empty registry of the collector's kind with a
// fresh accountant — the registry a restore replays into.
func newRegistry(epochs bool, cfg hdr4me.EpochConfig) (*hdr4me.Registry, *hdr4me.Accountant, error) {
	acct, err := hdr4me.NewAccountant(totalEps)
	if err != nil {
		return nil, nil, err
	}
	if !epochs {
		return hdr4me.NewQueryRegistry(acct), acct, nil
	}
	reg, err := hdr4me.NewEpochQueryRegistry(acct, cfg)
	return reg, acct, err
}

// startCollector opens names on a fresh registry (or serves reg when
// non-nil) and starts serving it on an ephemeral loopback port.
func startCollector(dir string, epochs bool, cfg hdr4me.EpochConfig, reg *hdr4me.Registry, acct *hdr4me.Accountant, names ...string) (*collector, error) {
	if reg == nil {
		var err error
		if reg, acct, err = newRegistry(epochs, cfg); err != nil {
			return nil, err
		}
		for _, n := range names {
			if _, err := reg.Open(specs[n]); err != nil {
				return nil, fmt.Errorf("open %s: %w", n, err)
			}
		}
	}
	c := &collector{reg: reg, acct: acct, dir: dir, epochs: epochs, cfg: cfg}
	c.srv = hdr4me.NewRegistryServer(reg)
	c.srv.Logf = func(string, ...any) { c.logs.Add(1) }
	c.srv.OnCheckpoint = func() error {
		t0 := time.Now()
		err := hdr4me.SaveCollectorState(c.dir, c.reg, c.acct)
		c.saveSp.add(1, time.Since(t0))
		return err
	}
	addr, err := c.srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	c.addr = addr.String()
	return c, nil
}

func (c *collector) close() { c.srv.Close() }

// ring returns the epoch ring of the named query, or nil for a one-shot
// query.
func (c *collector) ring(name string) *epoch.Ring {
	q := c.reg.Get(name)
	if q == nil {
		return nil
	}
	r, _ := q.Estimator().(*epoch.Ring)
	return r
}

// totalCounts sums a query's per-dimension report counts over its live
// epoch and, for a ring, every retained frozen epoch.
func (c *collector) totalCounts(name string) int64 {
	q := c.reg.Get(name)
	var sum int64
	for _, v := range q.Estimator().Counts() {
		sum += v
	}
	if r := c.ring(name); r != nil {
		_, entries := r.State()
		for _, e := range entries {
			for _, v := range e.Snap.Counts {
				sum += v
			}
		}
	}
	return sum
}

// rotations is the number of epoch rotations across the collector's
// rings.
func (c *collector) rotations() int64 {
	var n int64
	for _, name := range c.reg.Names() {
		if r := c.ring(name); r != nil {
			n += int64(r.Current())
		}
	}
	return n
}

// checkpointBytes is the size of the collector's checkpoint files.
func checkpointBytes(dir string) (int64, error) {
	var n int64
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	for _, e := range ents {
		fi, err := e.Info()
		if err != nil {
			return 0, err
		}
		n += fi.Size()
	}
	return n, nil
}

// readCheckpoint returns the bytes of the single checkpoint file in dir.
func readCheckpoint(dir string) ([]byte, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	if len(ents) != 1 {
		return nil, fmt.Errorf("checkpoint dir %s holds %d files, want 1", dir, len(ents))
	}
	return os.ReadFile(filepath.Join(dir, ents[0].Name()))
}

// countConn counts the bytes a client writes: the wire cost of its
// reports, HELLOs and route headers.
type countConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// dialCounted connects to addr with a byte-counting connection and wraps
// it in a protocol-v2 client.
func dialCounted(addr string, wrote *atomic.Int64) (*transport.Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return transport.NewClient(countConn{conn, wrote}, transport.WithProtocolVersion(2)), nil
}

// bufferedClient is DialCollectorBuffered with WithProtocolVersion(2) and
// WithReconnect, over a byte-counting connection: sequenced CBATCH
// frames under a replay session.
func bufferedClient(addr, query string, batch int, wrote *atomic.Int64) (*transport.BufferedClient, error) {
	redial := func() (*transport.Client, error) { return dialCounted(addr, wrote) }
	c, err := redial()
	if err != nil {
		return nil, err
	}
	opts := []hdr4me.BufferOption{hdr4me.WithProtocolVersion(2), hdr4me.WithReconnect(redial), hdr4me.WithQueryName(query)}
	if batch > 0 {
		opts = append(opts, hdr4me.WithBatchSize(batch))
	}
	return transport.NewBufferedClient(c, opts...), nil
}

// rawConn is a client connection that writes pre-encoded frames and reads
// their replies itself, so the frames' encode cost stays in setup.
type rawConn struct {
	conn  net.Conn
	br    *bufio.Reader
	wrote atomic.Int64
}

func dialRaw(addr string) (*rawConn, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &rawConn{conn: conn, br: bufio.NewReaderSize(conn, 1<<12)}, nil
}

func (r *rawConn) write(p []byte) error {
	n, err := r.conn.Write(p)
	r.wrote.Add(int64(n))
	return err
}

// batchAck reads one batch reply: a status byte, then — on OK — the
// uint32 accepted count.
func (r *rawConn) batchAck() (int, error) {
	st, err := r.br.ReadByte()
	if err != nil {
		return 0, err
	}
	if st != 0x00 {
		return 0, fmt.Errorf("batch NACKed with status 0x%02x", st)
	}
	var b [4]byte
	if _, err := io.ReadFull(r.br, b[:]); err != nil {
		return 0, err
	}
	return int(binary.BigEndian.Uint32(b[:])), nil
}

// checkpoint sends a CHECKPOINT (0x0B) frame and reads its status.
func (r *rawConn) checkpoint() error {
	if err := r.write([]byte{0x0B}); err != nil {
		return err
	}
	st, err := r.br.ReadByte()
	if err != nil || st == 0x00 {
		return err
	}
	var b [4]byte
	if _, err := io.ReadFull(r.br, b[:]); err != nil {
		return fmt.Errorf("checkpoint: status 0x%02x", st)
	}
	msg := make([]byte, min(binary.BigEndian.Uint32(b[:]), 1<<10))
	io.ReadFull(r.br, msg)
	return fmt.Errorf("checkpoint: status 0x%02x: %s", st, msg)
}

// rotate sends a SELECT-routed ROTATE (0x0F) frame and reads the new
// live epoch id.
func (r *rawConn) rotate(query string) error {
	f := []byte{0x0A}
	f = binary.BigEndian.AppendUint32(f, uint32(len(query)))
	f = append(f, query...)
	f = append(f, 0x0F)
	if err := r.write(f); err != nil {
		return err
	}
	st, err := r.br.ReadByte()
	if err != nil {
		return err
	}
	if st != 0x00 {
		return fmt.Errorf("rotate %s: status 0x%02x", query, st)
	}
	_, err = r.br.Discard(8)
	return err
}

func (r *rawConn) close() error { return r.conn.Close() }

// deviceStats are the spans of a device series, indexed by device number,
// so tenths of a series are tenths of the run (the session-table growth
// of finding (d)).
type deviceStats struct {
	total, dial, hello, ack samples
	accepted, failed        atomic.Int64
}

func newDeviceStats(n int) *deviceStats {
	ds := &deviceStats{}
	for _, s := range []*samples{&ds.total, &ds.dial, &ds.hello, &ds.ack} {
		s.ns = make([]int64, n)
	}
	return ds
}

// runDevices drives devices lo..hi-1 of a series through the collector
// from `workers` concurrent goroutines (closed loop). Each device dials,
// opens a replay session with a versioned HELLO(0), ships one sequenced
// single-report CBATCH, waits for its ack and closes — a BufferedClient
// of batch size 1. Device i sends reps[i%len(reps)] and records its
// spans at index i of ds.
func runDevices(addr, query string, reps []hdr4me.Report, lo, hi, workers int, wrote *atomic.Int64, ds *deviceStats) {
	var next atomic.Int64
	next.Store(int64(lo))
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= hi {
					return
				}
				oneDevice(addr, query, reps[i%len(reps)], wrote, ds, i)
			}
		}()
	}
	wg.Wait()
}

// oneDevice runs device i's flow and records its spans. A failed device
// still records its samples (timed to the failure), so a failure also
// counts as a slow device.
func oneDevice(addr, query string, rep hdr4me.Report, wrote *atomic.Int64, ds *deviceStats, i int) {
	t0 := time.Now()
	t1, t2 := t0, t0
	ok := func() bool {
		b, err := bufferedClient(addr, query, 1, wrote)
		t1 = time.Now()
		t2 = t1
		if err != nil {
			return false
		}
		err = b.Add(rep) // versioned HELLO(0), then the CBATCH write
		t2 = time.Now()
		if cerr := b.Close(); err == nil { // drains the ack, closes
			err = cerr
		}
		return err == nil && b.Accepted() == 1
	}()
	t3 := time.Now()
	ds.total.ns[i] = int64(t3.Sub(t0))
	ds.dial.ns[i] = int64(t1.Sub(t0))
	ds.hello.ns[i] = int64(t2.Sub(t1))
	ds.ack.ns[i] = int64(t3.Sub(t2))
	if ok {
		ds.accepted.Add(1)
	} else {
		ds.failed.Add(1)
	}
}
