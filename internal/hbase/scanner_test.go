package hbase

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"tpcxiot/internal/lsm"
	"tpcxiot/internal/telemetry"
	"tpcxiot/internal/wal"
)

// seedKey/seedVal are the deterministic fixture rows used by the scanner
// tests: zero-padded keys sort in insertion order.
func seedKey(i int) []byte { return []byte(fmt.Sprintf("k%04d", i)) }
func seedVal(i int) []byte { return []byte(fmt.Sprintf("v%04d", i)) }

func seedRows(t *testing.T, c *Client, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := c.Put(seedKey(i), seedVal(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.FlushCommits(); err != nil {
		t.Fatal(err)
	}
}

// drainScanner consumes a scanner to exhaustion, checking strict key order.
func drainScanner(t *testing.T, sc *Scanner) []Row {
	t.Helper()
	var rows []Row
	for {
		row, ok, err := sc.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return rows
		}
		if len(rows) > 0 && bytes.Compare(rows[len(rows)-1].Key, row.Key) >= 0 {
			t.Fatalf("rows out of order: %q then %q", rows[len(rows)-1].Key, row.Key)
		}
		rows = append(rows, row)
	}
}

func totalOpenScanners(cl *Cluster) int {
	n := 0
	for _, s := range cl.Servers() {
		n += s.OpenScannerCount()
	}
	return n
}

// TestScannerCrossRegionMidLimit streams across three regions with a limit
// that lands mid-way through the second region, on chunk sizes small
// enough to force several chunks per region.
func TestScannerCrossRegionMidLimit(t *testing.T) {
	splits := [][]byte{seedKey(30), seedKey(60)}
	cl, c := newTestCluster(t, 3, splits)
	seedRows(t, c, 90)

	sc, err := c.newScannerChunk(nil, nil, 45, 7)
	if err != nil {
		t.Fatal(err)
	}
	rows := drainScanner(t, sc)
	if len(rows) != 45 {
		t.Fatalf("limited scan returned %d rows, want 45", len(rows))
	}
	for i, r := range rows {
		if !bytes.Equal(r.Key, seedKey(i)) || !bytes.Equal(r.Value, seedVal(i)) {
			t.Fatalf("row %d = %q/%q, want %q/%q", i, r.Key, r.Value, seedKey(i), seedVal(i))
		}
	}
	if err := sc.Close(); err != nil {
		t.Fatal(err)
	}

	// A bounded, unlimited scan that starts and ends mid-region.
	sc, err = c.newScannerChunk(seedKey(10), seedKey(70), 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	rows = drainScanner(t, sc)
	if len(rows) != 60 || !bytes.Equal(rows[0].Key, seedKey(10)) ||
		!bytes.Equal(rows[len(rows)-1].Key, seedKey(69)) {
		t.Fatalf("range scan: %d rows [%q..%q], want 60 [k0010..k0069]",
			len(rows), rows[0].Key, rows[len(rows)-1].Key)
	}
	if err := sc.Close(); err != nil {
		t.Fatal(err)
	}

	// Every server-side session must be released once scans finish.
	if n := totalOpenScanners(cl); n != 0 {
		t.Fatalf("%d scanner sessions left open after close", n)
	}
}

// TestScannerCrossRegionMidLimitTCP is the same cross-region mid-limit
// walk over the wire protocol, exercising the three scan frame types.
func TestScannerCrossRegionMidLimitTCP(t *testing.T) {
	splits := [][]byte{seedKey(30), seedKey(60)}
	cl, c := newTCPCluster(t, 3, splits)
	seedRows(t, c, 90)

	sc, err := c.newScannerChunk(nil, nil, 45, 5)
	if err != nil {
		t.Fatal(err)
	}
	rows := drainScanner(t, sc)
	if len(rows) != 45 {
		t.Fatalf("limited TCP scan returned %d rows, want 45", len(rows))
	}
	for i, r := range rows {
		if !bytes.Equal(r.Key, seedKey(i)) || !bytes.Equal(r.Value, seedVal(i)) {
			t.Fatalf("row %d = %q/%q, want %q/%q", i, r.Key, r.Value, seedKey(i), seedVal(i))
		}
	}
	if err := sc.Close(); err != nil {
		t.Fatal(err)
	}

	// The connection must be quiescent again: a point read and a second scan
	// both work on the same client after the first scanner closes.
	if v, ok, err := getKey(c, seedKey(77)); err != nil || !ok || !bytes.Equal(v, seedVal(77)) {
		t.Fatalf("read after scan = %q,%v,%v", v, ok, err)
	}
	sc, err = c.newScannerChunk(seedKey(55), seedKey(65), 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	rows = drainScanner(t, sc)
	if len(rows) != 10 {
		t.Fatalf("second TCP scan returned %d rows, want 10", len(rows))
	}
	if err := sc.Close(); err != nil {
		t.Fatal(err)
	}
	if n := totalOpenScanners(cl); n != 0 {
		t.Fatalf("%d scanner sessions left open after close", n)
	}
}

// TestScannerEarlyCloseReleasesSession abandons a scan mid-region and
// checks Close releases the server-side session immediately.
func TestScannerEarlyCloseReleasesSession(t *testing.T) {
	cl, c := newTestCluster(t, 3, nil)
	seedRows(t, c, 100)

	sc, err := c.newScannerChunk(nil, nil, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, ok, err := sc.Next(); err != nil || !ok {
			t.Fatalf("Next %d = %v,%v", i, ok, err)
		}
	}
	if err := sc.Close(); err != nil {
		t.Fatal(err)
	}
	if n := totalOpenScanners(cl); n != 0 {
		t.Fatalf("%d scanner sessions left open after early close", n)
	}
	// Close is idempotent and Next after Close terminates cleanly.
	if err := sc.Close(); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := sc.Next(); ok || err != nil {
		t.Fatalf("Next after Close = %v,%v", ok, err)
	}
}

// TestScannerSnapshotUnderFlushCompact opens a scanner, then flushes, writes
// fresh rows and compacts the region underneath it. The scanner must return
// exactly the rows that existed when it opened: the pinned snapshot survives
// every maintenance operation.
func TestScannerSnapshotUnderFlushCompact(t *testing.T) {
	const n = 200
	cl, c := newTestCluster(t, 3, nil)
	seedRows(t, c, n)

	sc, err := c.newScannerChunk(nil, nil, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	var rows []Row
	for i := 0; i < 20; i++ {
		row, ok, err := sc.Next()
		if err != nil || !ok {
			t.Fatalf("Next %d = %v,%v", i, ok, err)
		}
		rows = append(rows, row)
	}

	// Flush every replica first so later writes land in a memtable the
	// scanner never pinned.
	tbl, err := cl.Table("iot")
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range copies(cl, tbl.regions[0]) {
		if err := rep.Flush(); err != nil {
			t.Fatal(err)
		}
	}

	// Post-snapshot writes interleaved through the scanned range.
	w, err := cl.NewClient("iot", 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i += 4 {
		if err := w.Put([]byte(fmt.Sprintf("k%04d-new", i)), []byte("late")); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.FlushCommits(); err != nil {
		t.Fatal(err)
	}

	// Compact the primary the scanner is reading from: the tables its
	// snapshot pinned are retired from the table set.
	if err := copies(cl, tbl.regions[0])[0].Store().Compact(); err != nil {
		t.Fatal(err)
	}

	rows = append(rows, drainScanner(t, sc)...)
	if err := sc.Close(); err != nil {
		t.Fatal(err)
	}
	if len(rows) != n {
		t.Fatalf("snapshot scan returned %d rows, want %d", len(rows), n)
	}
	for i, r := range rows {
		if !bytes.Equal(r.Key, seedKey(i)) {
			t.Fatalf("row %d = %q, want %q (post-snapshot write leaked or row lost)",
				i, r.Key, seedKey(i))
		}
	}

	// The new rows are visible to a fresh client.
	r, err := cl.NewClient("iot", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := getKey(r, []byte("k0004-new")); err != nil || !ok {
		t.Fatalf("post-compaction read = %v,%v", ok, err)
	}
}

// TestScannerConcurrentIngestRace streams a seeded range while a second
// client ingests at full rate into the same region, with a memtable small
// enough to force flushes and compactions mid-scan. Run under -race; the
// scan must still return exactly the seeded snapshot in order.
func TestScannerConcurrentIngestRace(t *testing.T) {
	const seeded = 300
	cfg := Config{
		Nodes:   3,
		DataDir: t.TempDir(),
		Store: lsm.Options{
			WALSync:        wal.SyncNever,
			MemtableSize:   32 << 10,
			CompactTrigger: 3,
		},
	}
	cl, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.CreateTable("iot", nil); err != nil {
		t.Fatal(err)
	}
	c, err := cl.NewClient("iot", 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < seeded; i++ {
		if err := c.Put([]byte(fmt.Sprintf("s%05d", i)), seedVal(i)); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		wc, err := cl.NewClient("iot", 0)
		if err != nil {
			t.Error(err)
			return
		}
		defer wc.Close()
		val := bytes.Repeat([]byte("x"), 256)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := wc.Put([]byte(fmt.Sprintf("w%07d", i)), val); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	for round := 0; round < 10; round++ {
		sc, err := c.newScannerChunk([]byte("s"), []byte("t"), 0, 16)
		if err != nil {
			t.Fatal(err)
		}
		rows := drainScanner(t, sc)
		if err := sc.Close(); err != nil {
			t.Fatal(err)
		}
		if len(rows) != seeded {
			t.Fatalf("round %d: scan returned %d rows, want %d", round, len(rows), seeded)
		}
	}
	close(stop)
	wg.Wait()
}

// TestScannerLeaseExpiry abandons a server-side scanner session and checks
// the lease sweep reclaims it: the session count drops, the stale id is
// rejected, and the expiry counter ticks.
func TestScannerLeaseExpiry(t *testing.T) {
	reg := telemetry.NewRegistry()
	cfg := Config{
		Nodes:               3,
		DataDir:             t.TempDir(),
		Store:               lsm.Options{WALSync: wal.SyncNever},
		ScannerLeaseTimeout: 50 * time.Millisecond,
		Registry:            reg,
	}
	cl, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.CreateTable("iot", nil); err != nil {
		t.Fatal(err)
	}
	c, err := cl.NewClient("iot", 0)
	if err != nil {
		t.Fatal(err)
	}
	seedRows(t, c, 50)

	tbl, err := cl.Table("iot")
	if err != nil {
		t.Fatal(err)
	}
	srv, tr := tbl.regions[0].primary, tbl.regions[0]

	// Open and pull one chunk, then abandon the session without closing.
	stale, err := srv.openScanner(tr, nil, nil, 0, telemetry.TSpan{})
	if err != nil {
		t.Fatal(err)
	}
	discard := func(key, value []byte) {}
	if n, more, err := srv.next(stale, 4, discard, telemetry.TSpan{}); err != nil || !more || n != 4 {
		t.Fatalf("next = %d rows, more=%v, err=%v", n, more, err)
	}
	if n := srv.OpenScannerCount(); n != 1 {
		t.Fatalf("OpenScannerCount = %d, want 1", n)
	}

	time.Sleep(120 * time.Millisecond) // let the lease lapse

	// Any scanner operation sweeps expired sessions.
	fresh, err := srv.openScanner(tr, nil, nil, 0, telemetry.TSpan{})
	if err != nil {
		t.Fatal(err)
	}
	if n := srv.OpenScannerCount(); n != 1 {
		t.Fatalf("OpenScannerCount after sweep = %d, want 1 (the fresh session)", n)
	}
	if _, _, err := srv.next(stale, 4, discard, telemetry.TSpan{}); !errors.Is(err, ErrUnknownScanner) {
		t.Fatalf("next on expired id = %v, want ErrUnknownScanner", err)
	}
	if got := reg.CounterValue("hbase.scanner_lease_expiries"); got < 1 {
		t.Fatalf("scanner_lease_expiries = %d, want >= 1", got)
	}

	// The fresh session is unaffected and closes cleanly.
	if n, _, err := srv.next(fresh, 4, discard, telemetry.TSpan{}); err != nil || n != 4 {
		t.Fatalf("fresh next = %d rows, err=%v", n, err)
	}
	if err := srv.closeScanner(fresh); err != nil {
		t.Fatal(err)
	}
	if n := srv.OpenScannerCount(); n != 0 {
		t.Fatalf("OpenScannerCount after close = %d, want 0", n)
	}
}

// TestScanBoundOutlivesRequestFrame: a scanner session keeps its upper bound
// for its whole life, while the server reads every request on the
// connection into one frame buffer. A write sent between two chunks of a
// scan over the same connection must not move the bound.
func TestScanBoundOutlivesRequestFrame(t *testing.T) {
	_, c := newTCPCluster(t, 3, nil)
	seedRows(t, c, 40)
	sc, err := c.newScannerChunk(nil, []byte("l"), 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := sc.Next(); err != nil || !ok {
		t.Fatalf("first row: ok=%v err=%v", ok, err)
	}
	// Sorts before every row left, so the scan does not return it.
	if err := c.Put([]byte("a"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if rows := drainScanner(t, sc); len(rows) != 39 {
		t.Fatalf("scan returned %d more rows, want 39", len(rows))
	}
	if err := sc.Close(); err != nil {
		t.Fatal(err)
	}
}
