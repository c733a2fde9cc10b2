package hbase

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"tpcxiot/internal/kvp"
	"tpcxiot/internal/lsm"
	"tpcxiot/internal/telemetry"
)

// failingTransport fails mutate RPCs for one region; everything else passes
// through to the in-process transport.
type failingTransport struct {
	inprocTransport
	failRegion string
	err        error
}

func (f *failingTransport) mutate(tr *tableRegion, batch *lsm.Batch, sp telemetry.TSpan) error {
	if tr.name == f.failRegion {
		return f.err
	}
	return f.inprocTransport.mutate(tr, batch, sp)
}

// TestFlushCommitsPartialFailureAccounting: a mid-flush RPC failure must
// leave c.buffered equal to exactly the bytes still buffered — regions
// flushed before the failure no longer count — so the autoflush threshold
// and a later retry behave correctly.
func TestFlushCommitsPartialFailureAccounting(t *testing.T) {
	cl, _ := newTestCluster(t, 3, [][]byte{[]byte("m")})
	c, err := cl.NewClient("iot", 1<<30) // no autoflush
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := cl.Table("iot")
	sentinel := errors.New("region server unreachable")
	failing := &failingTransport{failRegion: tbl.locate([]byte("a")).name, err: sentinel}
	c.rpc = failing

	// Buffer writes to both regions.
	for i := 0; i < 8; i++ {
		if err := c.Put([]byte(fmt.Sprintf("a%03d", i)), []byte("low")); err != nil {
			t.Fatal(err)
		}
		if err := c.Put([]byte(fmt.Sprintf("z%03d", i)), []byte("high")); err != nil {
			t.Fatal(err)
		}
	}
	before := c.buffered
	if before == 0 {
		t.Fatal("writes were not buffered")
	}

	if err := c.FlushCommits(); !errors.Is(err, sentinel) {
		t.Fatalf("flush with one region down: %v", err)
	}
	// Invariant: the accounting matches the surviving buffers exactly,
	// whether or not the healthy region flushed before the failure hit.
	var remaining int64
	for _, batch := range c.buffers {
		remaining += batch.Size()
	}
	if got := c.buffered; got != remaining {
		t.Fatalf("buffered = %d, buffers hold %d", got, remaining)
	}
	if remaining == 0 || remaining > before {
		t.Fatalf("remaining = %d of %d: failed region's batch must stay buffered", remaining, before)
	}

	// Heal the transport: the retry flushes the remainder and zeroes the
	// accounting.
	c.rpc = inprocTransport{}
	if err := c.FlushCommits(); err != nil {
		t.Fatal(err)
	}
	if got := c.buffered; got != 0 {
		t.Fatalf("buffered = %d after successful retry, want 0", got)
	}
	for i := 0; i < 8; i++ {
		for _, k := range []string{fmt.Sprintf("a%03d", i), fmt.Sprintf("z%03d", i)} {
			if _, ok, err := getKey(c, []byte(k)); err != nil || !ok {
				t.Fatalf("key %q lost across failed flush + retry: ok=%v err=%v", k, ok, err)
			}
		}
	}

	// The same through the sender: buffers sealed by Put fail off the
	// caller's goroutine, a later Put returns the failure, and every batch
	// not shipped is back in the buffer, counted again.
	auto, err := cl.NewClient("iot", 256)
	if err != nil {
		t.Fatal(err)
	}
	auto.rpc = failing
	var keys []string
	for i := 0; ; i++ {
		if i == 1000 {
			t.Fatal("a failing sender's error never surfaced on Put")
		}
		k := fmt.Sprintf("%c%03d-sealed", "az"[i%2], i)
		keys = append(keys, k)
		if err := auto.Put([]byte(k), []byte("v")); err != nil {
			if !errors.Is(err, sentinel) {
				t.Fatalf("put %d: %v", i, err)
			}
			break
		}
	}
	remaining = 0
	for _, batch := range auto.buffers {
		remaining += batch.Size()
	}
	if got := auto.buffered; got != remaining || remaining == 0 {
		t.Fatalf("buffered = %d, buffers hold %d after a sender failure", got, remaining)
	}
	auto.rpc = inprocTransport{}
	if err := auto.FlushCommits(); err != nil {
		t.Fatal(err)
	}
	if got := auto.buffered; got != 0 {
		t.Fatalf("buffered = %d after the healed flush, want 0", got)
	}
	for _, k := range keys {
		if _, ok, err := getKey(auto, []byte(k)); err != nil || !ok {
			t.Fatalf("key %q lost across a sender failure: ok=%v err=%v", k, ok, err)
		}
	}
}

// valueOf is the value batch carries for key, or "" when it holds none.
func valueOf(batch *lsm.Batch, key []byte) string {
	for _, m := range rowsOf(batch) {
		if bytes.Equal(m.Key, key) {
			return string(m.Value)
		}
	}
	return ""
}

// shedTransport sheds the first shed mutates with a retryable overload and
// logs, call by call, what each mutate carried for key: "shed v1", "ack v1".
type shedTransport struct {
	transport
	key  []byte
	shed int
	log  []string
}

func (s *shedTransport) mutate(tr *tableRegion, batch *lsm.Batch, sp telemetry.TSpan) error {
	v := valueOf(batch, s.key)
	if s.shed > 0 {
		s.shed--
		s.log = append(s.log, "shed "+v)
		return &OverloadedError{RetryAfter: time.Microsecond}
	}
	err := s.transport.mutate(tr, batch, sp)
	if err == nil {
		s.log = append(s.log, "ack "+v)
	}
	return err
}

// fillToSeal puts filler rows through c until a Put seals the buffer.
func fillToSeal(t *testing.T, c *Client, prefix string) {
	t.Helper()
	for i := 0; c.buffered > 0; i++ {
		if err := c.Put([]byte(fmt.Sprintf("%s%04d", prefix, i)), bytes.Repeat([]byte("f"), 100)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSenderKeepsRegionOrderAcrossSheds: a buffer that is shed and retried
// is acked before the buffer sealed after it reaches the wire, so the later
// write of a key wins.
func TestSenderKeepsRegionOrderAcrossSheds(t *testing.T) {
	cfg := testConfig(t, 3)
	cfg.RetryBaseDelay, cfg.RetryMaxDelay = time.Microsecond, time.Microsecond
	cl, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	if _, err := cl.CreateTable("iot", nil); err != nil {
		t.Fatal(err)
	}
	c, err := cl.NewClient("iot", 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	k := []byte("k")
	shed := &shedTransport{transport: inprocTransport{}, key: k, shed: 3}
	c.rpc = shed

	if err := c.Put(k, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	fillToSeal(t, c, "a")
	if err := c.Put(k, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	fillToSeal(t, c, "b")
	if err := c.FlushCommits(); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := getKey(c, k); err != nil || !ok || string(v) != "v2" {
		t.Fatalf("read k = %q,%v,%v; want the later write v2", v, ok, err)
	}
	want := []string{"shed v1", "shed v1", "shed v1", "ack v1", "ack v2"}
	if !reflect.DeepEqual(shed.log, want) {
		t.Fatalf("mutates on the wire: %q, want %q", shed.log, want)
	}
	if retries, _ := c.RetryStats(); retries != 3 {
		t.Fatalf("retries = %d, want 3", retries)
	}
}

// gateTransport holds each mutate until the test releases it, announcing it
// on entered first.
type gateTransport struct {
	transport
	entered chan struct{}
	release chan struct{}
}

func (g *gateTransport) mutate(tr *tableRegion, batch *lsm.Batch, sp telemetry.TSpan) error {
	g.entered <- struct{}{}
	<-g.release
	return g.transport.mutate(tr, batch, sp)
}

// TestSenderBoundsInFlight: with one sealed buffer on the wire and one
// queued, the Put that seals a third blocks — counted, and spanned under
// its client.put — until the one on the wire completes.
func TestSenderBoundsInFlight(t *testing.T) {
	reg := telemetry.NewRegistry()
	tracer := telemetry.NewTracer(telemetry.TracerOptions{SampleEvery: 1})
	cfg := testConfig(t, 3)
	cfg.Registry, cfg.Tracer = reg, tracer
	cl, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	if _, err := cl.CreateTable("iot", nil); err != nil {
		t.Fatal(err)
	}
	c, err := cl.NewClient("iot", 0) // every Put seals
	if err != nil {
		t.Fatal(err)
	}
	gate := &gateTransport{transport: inprocTransport{}, entered: make(chan struct{}), release: make(chan struct{})}
	c.rpc = gate
	put := func(i int) error { return c.Put([]byte(fmt.Sprintf("k%d", i)), []byte("v")) }
	waits := func() int64 { return reg.CounterValue("hbase.client_flush_waits") }

	if err := put(0); err != nil {
		t.Fatal(err)
	}
	<-gate.entered // buffer 1 on the wire
	if err := put(1); err != nil {
		t.Fatal(err)
	}
	if waits() != 0 {
		t.Fatal("the second sealed buffer waited with a queue slot free")
	}
	third := make(chan error, 1)
	go func() { third <- put(2) }()
	for waits() == 0 {
		runtime.Gosched() // until the third Put is at the bound
	}
	select {
	case err := <-third:
		t.Fatalf("third sealing Put returned (%v) with two buffers outstanding", err)
	default:
	}
	gate.release <- struct{}{} // buffer 1 acked
	<-gate.entered             // buffer 2 on the wire: a queue slot frees
	if err := <-third; err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		gate.release <- struct{}{}
		if i == 0 {
			<-gate.entered
		}
	}
	if err := c.FlushCommits(); err != nil {
		t.Fatal(err)
	}
	if got := waits(); got != 1 {
		t.Fatalf("hbase.client_flush_waits = %d, want 1", got)
	}
	if traceWith(tracer, "client.put", "client.flush_wait") == nil {
		t.Fatal("no client.put trace with a client.flush_wait span")
	}
	for i := 0; i < 3; i++ {
		if _, ok, err := getKey(c, []byte(fmt.Sprintf("k%d", i))); err != nil || !ok {
			t.Fatalf("k%d: ok=%v err=%v", i, ok, err)
		}
	}
}

// slowTransport delays every mutate, so sealed buffers are still on the
// wire when the test reads.
type slowTransport struct {
	transport
	delay time.Duration
}

func (s slowTransport) mutate(tr *tableRegion, batch *lsm.Batch, sp telemetry.TSpan) error {
	time.Sleep(s.delay)
	return s.transport.mutate(tr, batch, sp)
}

// TestReadYourWritesWhileFlushing: NewScanner and Aggregate see every write
// the client made before them, sealed buffers still on the wire included,
// in-process and over TCP. The first read of a round is a one-key scan.
func TestReadYourWritesWhileFlushing(t *testing.T) {
	split := kvp.Key{Substation: "sub0", Sensor: "sb", Timestamp: 0}.Encode()
	cl, _ := newTCPCluster(t, 3, [][]byte{split})
	clients := map[string]func() (*Client, error){
		"in-process": func() (*Client, error) { return cl.NewClient("iot", 4<<10) },
		"tcp":        func() (*Client, error) { return cl.NewTCPClient("iot", 4<<10) },
	}
	for name, newClient := range clients {
		c, err := newClient()
		if err != nil {
			t.Fatal(err)
		}
		c.rpc = slowTransport{transport: c.rpc, delay: time.Millisecond}
		lo, hi := seriesRange("sub0")
		written := int64(0)
		for round := 0; round < 3; round++ {
			var last []byte
			for i := 0; i < 40; i++ {
				k, v := aggKVP(t, "sub0", []string{"sa", "sb"}[i%2], int64(round*1000+i), 1)
				if err := c.Put(k, v); err != nil {
					t.Fatal(err)
				}
				last = k
				written++
			}
			if _, ok, err := getKey(c, last); err != nil || !ok {
				t.Fatalf("%s round %d: read of the last write: ok=%v err=%v", name, round, ok, err)
			}
			// The read acked everything before it; write more to read behind.
			for i := 40; i < 80; i++ {
				k, v := aggKVP(t, "sub0", []string{"sa", "sb"}[i%2], int64(round*1000+i), 1)
				if err := c.Put(k, v); err != nil {
					t.Fatal(err)
				}
				written++
			}
			res, err := c.Aggregate(lo, hi, 0, math.MaxInt64, 0, lsm.AggCount)
			if err != nil || res.RowsFolded != written {
				t.Fatalf("%s round %d: Aggregate folded %d rows (%v), want %d", name, round, res.RowsFolded, err, written)
			}
			for i := 80; i < 120; i++ {
				k, v := aggKVP(t, "sub0", []string{"sa", "sb"}[i%2], int64(round*1000+i), 1)
				if err := c.Put(k, v); err != nil {
					t.Fatal(err)
				}
				written++
			}
			rows, err := scanAll(c, lo, hi, 0)
			if err != nil || int64(len(rows)) != written {
				t.Fatalf("%s round %d: scan returned %d rows (%v), want %d", name, round, len(rows), err, written)
			}
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		// Start the next client on an empty table.
		if err := cl.DropTable("iot"); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.CreateTable("iot", [][]byte{split}); err != nil {
			t.Fatal(err)
		}
	}
}

// serialTransport records how many transport calls ever ran at once, and
// holds the second chunk fetch until released.
type serialTransport struct {
	transport
	active, most atomic.Int32
	fetches      atomic.Int32
	entered      chan struct{}
	release      chan struct{}
}

func (s *serialTransport) enter() func() {
	n := s.active.Add(1)
	for m := s.most.Load(); n > m && !s.most.CompareAndSwap(m, n); m = s.most.Load() {
	}
	return func() { s.active.Add(-1) }
}

func (s *serialTransport) mutate(tr *tableRegion, batch *lsm.Batch, sp telemetry.TSpan) error {
	defer s.enter()()
	return s.transport.mutate(tr, batch, sp)
}

func (s *serialTransport) openScanner(tr *tableRegion, lo, hi []byte, limit int, sp telemetry.TSpan) (uint64, error) {
	defer s.enter()()
	return s.transport.openScanner(tr, lo, hi, limit, sp)
}

func (s *serialTransport) scanNext(tr *tableRegion, id uint64, chunk int, sp telemetry.TSpan) ([]Row, bool, error) {
	defer s.enter()()
	if s.fetches.Add(1) == 2 {
		s.entered <- struct{}{}
		<-s.release
	}
	return s.transport.scanNext(tr, id, chunk, sp)
}

func (s *serialTransport) closeScanner(tr *tableRegion, id uint64, sp telemetry.TSpan) error {
	defer s.enter()()
	return s.transport.closeScanner(tr, id, sp)
}

// TestPutSealsBehindScannerPrefetch: a Put that seals while the Scanner's
// next chunk is being fetched queues behind the fetch on the one sender —
// the transport never carries two calls at once — and the scan and the
// write both complete.
func TestPutSealsBehindScannerPrefetch(t *testing.T) {
	cl, c := newTCPCluster(t, 3, nil)
	seedRows(t, c, 40)
	st := &serialTransport{transport: c.rpc, entered: make(chan struct{}), release: make(chan struct{})}
	c.rpc = st
	// The late write lands outside the scanned range: an open scan may see
	// a write into a memtable it pinned.
	sc, err := c.newScannerChunk(nil, []byte("l"), 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := sc.Next(); err != nil || !ok {
		t.Fatalf("first row: ok=%v err=%v", ok, err)
	}
	<-st.entered // the second chunk's fetch is on the wire
	if err := c.Put([]byte("late"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	close(st.release)
	if rows := drainScanner(t, sc); len(rows) != 39 {
		t.Fatalf("scan returned %d more rows, want 39", len(rows))
	}
	if err := sc.Close(); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := getKey(c, []byte("late")); err != nil || !ok {
		t.Fatalf("the write sealed during the scan: ok=%v err=%v", ok, err)
	}
	if most := st.most.Load(); most != 1 {
		t.Fatalf("%d transport calls ran at once, want 1", most)
	}
	if n := totalOpenScanners(cl); n != 0 {
		t.Fatalf("%d scanner sessions left open", n)
	}
}

// TestCloseDrainsSender: Close returns once every sealed buffer is acked,
// and returns the sender's failure when one was not.
func TestCloseDrainsSender(t *testing.T) {
	cl, _ := newTestCluster(t, 3, nil)
	c, err := cl.NewClient("iot", 0)
	if err != nil {
		t.Fatal(err)
	}
	c.rpc = slowTransport{transport: inprocTransport{}, delay: time.Millisecond}
	for i := 0; i < 20; i++ {
		if err := c.Put([]byte(fmt.Sprintf("k%02d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	reader, err := cl.NewClient("iot", 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, ok, err := getKey(reader, []byte(fmt.Sprintf("k%02d", i))); err != nil || !ok {
			t.Fatalf("k%02d not stored after Close: ok=%v err=%v", i, ok, err)
		}
	}

	tbl, _ := cl.Table("iot")
	sentinel := errors.New("region server unreachable")
	failing, err := cl.NewClient("iot", 0)
	if err != nil {
		t.Fatal(err)
	}
	failing.rpc = &failingTransport{failRegion: tbl.locate([]byte("x")).name, err: sentinel}
	if err := failing.Put([]byte("x"), []byte("v")); err != nil {
		t.Fatalf("the sealing Put returned %v before its buffer shipped", err)
	}
	if err := failing.Close(); !errors.Is(err, sentinel) {
		t.Fatalf("Close = %v, want the sender's failure", err)
	}
	if err := failing.Put([]byte("y"), []byte("v")); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("Put after Close = %v", err)
	}
}

// TestMutateBatchSingleEngineRound: one client flush of N buffered writes to
// one region must reach the engine as one batch apply per replica (not N),
// with replication acks counted per member per write.
func TestMutateBatchSingleEngineRound(t *testing.T) {
	cl, _ := newTestCluster(t, 3, nil)
	c, err := cl.NewClient("iot", 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	const n = 40
	for i := 0; i < n; i++ {
		if err := c.Put([]byte(fmt.Sprintf("k%03d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.FlushCommits(); err != nil {
		t.Fatal(err)
	}
	// The flush acks at quorum; wait for the straggler's one catch-up round
	// before counting engine rounds.
	if err := cl.Quiesce(); err != nil {
		t.Fatal(err)
	}
	tbl, _ := cl.Table("iot")
	for i, rep := range copies(cl, tbl.regions[0]) {
		st := rep.Store().Stats()
		if st.BatchApplies != 1 {
			t.Fatalf("replica %d applied %d rounds for one flush, want 1", i, st.BatchApplies)
		}
		if st.Puts != n {
			t.Fatalf("replica %d holds %d puts, want %d", i, st.Puts, n)
		}
	}
}

// TestCloseOutlastsTransientShed: a batch the sender gave up on for overload
// is reported by Close's first flush, back in the buffer, and Close flushes
// once more, so the cluster takes it once the shed passes.
func TestCloseOutlastsTransientShed(t *testing.T) {
	cfg := testConfig(t, 3)
	cfg.RetryMax = 2
	cfg.RetryBaseDelay, cfg.RetryMaxDelay = time.Microsecond, time.Microsecond
	cl, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	if _, err := cl.CreateTable("iot", nil); err != nil {
		t.Fatal(err)
	}
	c, err := cl.NewClient("iot", 0)
	if err != nil {
		t.Fatal(err)
	}
	k := []byte("k")
	// Four sheds: the sender's RetryMax+1 attempts take three, and Close's
	// second flush meets the fourth and ships on its retry.
	c.rpc = &shedTransport{transport: inprocTransport{}, key: k, shed: 4}
	if err := c.Put(k, []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("Close through a transient shed: %v", err)
	}
	r, err := cl.NewClient("iot", 0)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok, err := getKey(r, k); err != nil || !ok || string(v) != "v" {
		t.Fatalf("read k = %q,%v,%v after Close", v, ok, err)
	}
}

// TestReadFlushIsNotABufferFlush: the flush a read makes of its region
// ships the region's writes but is not a buffer flush — neither counted in
// hbase.buffer_flushes nor timed in put.client_flush — so rows per flush
// reads the same whether or not queries run.
func TestReadFlushIsNotABufferFlush(t *testing.T) {
	reg := telemetry.NewRegistry()
	cfg := testConfig(t, 3)
	cfg.Registry = reg
	cl, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	if _, err := cl.CreateTable("iot", nil); err != nil {
		t.Fatal(err)
	}
	c, err := cl.NewClient("iot", 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	flushes := func() (int64, int64) {
		return reg.CounterValue("hbase.buffer_flushes"), reg.Histogram("put.client_flush").Snapshot().Count()
	}
	if err := c.Put([]byte("k1"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := getKey(c, []byte("k1")); err != nil || !ok {
		t.Fatalf("read k1: ok=%v err=%v", ok, err)
	}
	if n, timed := flushes(); n != 0 || timed != 0 || c.buffered != 0 {
		t.Fatalf("after a read flush: %d buffer flushes, %d timed, %d bytes buffered", n, timed, c.buffered)
	}
	if err := c.Put([]byte("k2"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := c.FlushCommits(); err != nil {
		t.Fatal(err)
	}
	if n, timed := flushes(); n != 1 || timed != 1 {
		t.Fatalf("after FlushCommits: %d buffer flushes, %d timed, want 1", n, timed)
	}
}

// keepingTransport fails every mutate and keeps each batch it was handed,
// with its row count then, as a stopped member's catch-up queue does.
type keepingTransport struct {
	inprocTransport
	kept []*lsm.Batch
	rows []int
}

func (k *keepingTransport) mutate(_ *tableRegion, batch *lsm.Batch, _ telemetry.TSpan) error {
	k.kept, k.rows = append(k.kept, batch), append(k.rows, batch.Len())
	return errors.New("member stopped")
}

// TestFailedBatchIsNotAddedTo: a batch whose mutate failed may still be held
// by the server, so puts after a failed FlushCommits or a failed read flush
// go into a new batch, and the rows come back in order when the flush is
// retried.
func TestFailedBatchIsNotAddedTo(t *testing.T) {
	cl, _ := newTestCluster(t, 3, nil)
	c, err := cl.NewClient("iot", 1<<30) // no autoflush
	if err != nil {
		t.Fatal(err)
	}
	keeping := &keepingTransport{}
	c.rpc = keeping
	put := func(k string) {
		if err := c.Put([]byte(k), []byte("v-"+k)); err != nil {
			t.Fatal(err)
		}
	}
	put("a")
	put("b")
	if err := c.FlushCommits(); err == nil {
		t.Fatal("FlushCommits through a failing transport succeeded")
	}
	put("c")
	if _, err := scanAll(c, nil, nil, 0); err == nil {
		t.Fatal("a read whose flush failed succeeded")
	}
	put("d")
	for i, b := range keeping.kept {
		if b.Len() != keeping.rows[i] {
			t.Fatalf("batch %d held %d rows when it failed and %d now", i, keeping.rows[i], b.Len())
		}
	}
	c.rpc = inprocTransport{}
	rows, err := scanAll(c, nil, nil, 0)
	if err != nil || len(rows) != 4 {
		t.Fatalf("scan after the retry: %d rows, %v", len(rows), err)
	}
	for i, k := range []string{"a", "b", "c", "d"} {
		if string(rows[i].Key) != k || string(rows[i].Value) != "v-"+k {
			t.Fatalf("row %d: %q=%q, want %q", i, rows[i].Key, rows[i].Value, k)
		}
	}
}
