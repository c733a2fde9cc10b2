package hbase

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"

	"tpcxiot/internal/lsm"
	"tpcxiot/internal/telemetry"
	"tpcxiot/internal/wal"
)

// scanFixture is a two-region TCP cluster whose small memtables keep
// flushing and compacting under load, seeded with rows under the "s" prefix.
type scanFixture struct {
	cl          *Cluster
	inproc, tcp *Client
	keys, vals  [][]byte
}

func newScanFixture(t *testing.T, rows, valueLen int) *scanFixture {
	t.Helper()
	cl, err := NewCluster(Config{
		Nodes:   3,
		DataDir: t.TempDir(),
		Store:   lsm.Options{WALSync: wal.SyncNever, MemtableSize: 64 << 10, CompactTrigger: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	f := &scanFixture{cl: cl}
	for i := 0; i < rows; i++ {
		f.keys = append(f.keys, []byte(fmt.Sprintf("s%06d", i)))
		f.vals = append(f.vals, bytes.Repeat([]byte{byte('a' + i%26)}, valueLen+i%7))
	}
	if _, err := cl.CreateTable("iot", [][]byte{f.keys[rows/2]}); err != nil {
		t.Fatal(err)
	}
	if err := cl.ServeTCP(); err != nil {
		t.Fatal(err)
	}
	if f.inproc, err = cl.NewClient("iot", 0); err != nil {
		t.Fatal(err)
	}
	if f.tcp, err = cl.NewTCPClient("iot", 0); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.tcp.Close() })
	for i := range f.keys {
		if err := f.inproc.Put(f.keys[i], f.vals[i]); err != nil {
			t.Fatal(err)
		}
	}
	// Acked: the stores hold every seeded row.
	if err := f.inproc.FlushCommits(); err != nil {
		t.Fatal(err)
	}
	return f
}

// storeRows reads [lo, hi) straight off the primary replicas' stores, region
// by region: what a scan must return, byte for byte.
func (f *scanFixture) storeRows(t *testing.T, lo, hi []byte) []Row {
	t.Helper()
	tbl, err := f.cl.Table("iot")
	if err != nil {
		t.Fatal(err)
	}
	var rows []Row
	for _, tr := range tbl.regions {
		it, err := copies(f.cl, tr)[0].Store().NewIterator(lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		for ; it.Valid(); it.Next() {
			rows = append(rows, Row{Key: append([]byte(nil), it.Key()...), Value: append([]byte(nil), it.Value()...)})
		}
		if err := it.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return rows
}

func sameRows(a, b []Row) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d rows against %d", len(a), len(b))
	}
	for i := range a {
		if !bytes.Equal(a[i].Key, b[i].Key) || !bytes.Equal(a[i].Value, b[i].Value) {
			return fmt.Errorf("row %d: %q (%d value bytes) against %q (%d)", i, a[i].Key, len(a[i].Value), b[i].Key, len(b[i].Value))
		}
	}
	return nil
}

// TestScannerParity: whatever the chunk size and wherever the limit falls
// against a chunk boundary, the in-process scanner, the TCP scanner and the
// stores themselves return byte-identical rows — while a writer keeps the
// regions flushing and compacting under the scans.
func TestScannerParity(t *testing.T) {
	f := newScanFixture(t, 700, 180)
	lo, hi := []byte("s"), []byte("t")

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		w, err := f.cl.NewClient("iot", 0)
		if err != nil {
			t.Error(err)
			return
		}
		defer w.Close()
		val := bytes.Repeat([]byte("w"), 300)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			// Either side of the scanned range, so both regions churn.
			if err := w.Put([]byte(fmt.Sprintf("%c%07d", "rw"[i%2], i)), val); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	defer func() {
		close(stop)
		wg.Wait()
	}()

	for _, chunk := range []int{1, 2, 127, 128, 129} {
		// Unlimited; a limit ending inside the second chunk (inside the first
		// and only row of it, for chunk 1), at its end, and one row past it.
		for _, limit := range []int{0, chunk + (chunk+1)/2, 2 * chunk, 2*chunk + 1} {
			want := f.storeRows(t, lo, hi)
			if len(want) != len(f.keys) {
				t.Fatalf("stores hold %d rows under the prefix, seeded %d", len(want), len(f.keys))
			}
			if limit > 0 {
				want = want[:limit]
			}
			for name, c := range map[string]*Client{"in-process": f.inproc, "tcp": f.tcp} {
				sc, err := c.newScannerChunk(lo, hi, limit, chunk)
				if err != nil {
					t.Fatal(err)
				}
				got := drainScanner(t, sc)
				if err := sc.Close(); err != nil {
					t.Fatal(err)
				}
				if err := sameRows(got, want); err != nil {
					t.Fatalf("%s, chunk %d, limit %d: %v", name, chunk, limit, err)
				}
			}
		}
	}
	if n := totalOpenScanners(f.cl); n != 0 {
		t.Fatalf("%d scanner sessions left open", n)
	}
}

// TestScanSnapshotPinnedAtOpen: the open RPC pins the snapshot — the table
// set and the memtables of that moment. After a flush has retired the pinned
// memtable, a row written into the range between two chunks lands where the
// scan never looks, on either transport; a finished scan's id is unknown.
func TestScanSnapshotPinnedAtOpen(t *testing.T) {
	f := newScanFixture(t, 40, 50)
	tcp, err := newTCPTransport(f.cl)
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.close()
	tbl, err := f.cl.Table("iot")
	if err != nil {
		t.Fatal(err)
	}
	tr := tbl.regions[0] // s000000..s000019
	for name, rpc := range map[string]transport{"in-process": inprocTransport{}, "tcp": tcp} {
		id, err := rpc.openScanner(tr, nil, nil, 0, telemetry.TSpan{})
		if err != nil {
			t.Fatal(err)
		}
		first, more, err := rpc.scanNext(tr, id, 4, telemetry.TSpan{})
		if err != nil || !more || len(first) != 4 {
			t.Fatalf("%s: first chunk = %d rows, more=%v, err=%v", name, len(first), more, err)
		}
		for _, rep := range copies(f.cl, tr) {
			if err := rep.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		late := []byte("s000004-late-" + name)
		if err := f.inproc.Put(late, []byte("late")); err != nil {
			t.Fatal(err)
		}
		if err := f.inproc.FlushCommits(); err != nil {
			t.Fatal(err)
		}
		rest, more, err := rpc.scanNext(tr, id, 100, telemetry.TSpan{})
		if err != nil || more {
			t.Fatalf("%s: next = more=%v, err=%v", name, more, err)
		}
		var want []Row // the region as it is now, less the late row
		for _, r := range f.storeRows(t, nil, tr.end) {
			if !bytes.Equal(r.Key, late) {
				want = append(want, r)
			}
		}
		if err := sameRows(append(first, rest...), want); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, _, err := rpc.scanNext(tr, id, 1, telemetry.TSpan{}); err == nil || !strings.Contains(err.Error(), ErrUnknownScanner.Error()) {
			t.Fatalf("%s: next on a finished scan = %v, want ErrUnknownScanner", name, err)
		}
		if n := tr.primary.OpenScannerCount(); n != 0 {
			t.Fatalf("%s: %d sessions after the scan finished", name, n)
		}
	}
}

// TestScanChunkByteBudget: a chunk request for 1<<62 rows over a range of
// several MiB comes back in frames bounded by scanChunkBytes, and the scan
// returns the same rows as ever.
func TestScanChunkByteBudget(t *testing.T) {
	const rowBytes = 8 << 10
	f := newScanFixture(t, 600, rowBytes) // ~4.7 MiB
	want := f.storeRows(t, nil, nil)
	for name, c := range map[string]*Client{"in-process": f.inproc, "tcp": f.tcp} {
		sc, err := c.newScannerChunk(nil, nil, 0, 1<<62)
		if err != nil {
			t.Fatal(err)
		}
		got := drainScanner(t, sc)
		sc.Close()
		if err := sameRows(got, want); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}

	tcp, err := newTCPTransport(f.cl)
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.close()
	tbl, _ := f.cl.Table("iot")
	tr := tbl.regions[0]
	id, err := tcp.openScanner(tr, nil, nil, math.MaxInt, telemetry.TSpan{})
	if err != nil {
		t.Fatal(err)
	}
	chunks := 0
	for more := true; more; chunks++ {
		var rows []Row
		if rows, more, err = tcp.scanNext(tr, id, 1<<62, telemetry.TSpan{}); err != nil {
			t.Fatal(err)
		}
		size := 0
		for _, r := range rows {
			size += len(r.Key) + len(r.Value)
		}
		// Every chunk but the last stops within a row of the budget.
		if size > scanChunkBytes+2*rowBytes || (more && size < scanChunkBytes-2*rowBytes) {
			t.Fatalf("chunk %d holds %d bytes in %d rows (more=%v), budget %d", chunks, size, len(rows), more, scanChunkBytes)
		}
	}
	if chunks < 3 {
		t.Fatalf("a 2.4 MiB region streamed in %d chunks", chunks)
	}

	if wireCount(math.MaxUint64) != math.MaxInt || wireCount(7) != 7 {
		t.Fatal("wireCount does not clamp")
	}
}

// TestFlushRefusesOversizedFrame: a frame whose length would not fit what
// readers accept is an error at the writer, not a wrapped length prefix.
func TestFlushRefusesOversizedFrame(t *testing.T) {
	f := frameWriter{buf: make([]byte, 4+maxFrame+1)}
	if err := f.flush(io.Discard); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("flush of %d bytes = %v, want ErrBadFrame", len(f.buf), err)
	}
	f.buf = f.buf[:4+maxFrame]
	if err := f.flush(io.Discard); err != nil {
		t.Fatalf("flush of exactly maxFrame = %v", err)
	}
}

// TestScanNextServerAllocations guards the server half of a chunk: with the
// rows encoded straight from the iterator into the connection's reused
// frame, a steady-state scan_next allocates a fixed handful of objects and
// bytes — the same for 128 rows as for 8 — not an arena, row headers and
// 4 KiB blocks in proportion to the rows.
func TestScanNextServerAllocations(t *testing.T) {
	cl, c := newTCPCluster(t, 3, nil)
	val := bytes.Repeat([]byte("v"), 1000)
	const rows = 6000
	for i := 0; i < rows; i++ {
		if err := c.Put([]byte(fmt.Sprintf("k%06d", i)), val); err != nil {
			t.Fatal(err)
		}
	}
	tbl, _ := cl.Table("iot")
	tr := tbl.regions[0]
	// Settle every replica: nothing may flush or compact, allocating, beside
	// the measurement.
	if err := cl.Quiesce(); err != nil {
		t.Fatal(err)
	}
	for _, rep := range copies(cl, tr) {
		if err := rep.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := rep.Store().CompactPending(); err != nil {
			t.Fatal(err)
		}
	}

	// One connection's worth of state, driven the way serveConn drives it.
	var req frameReader
	var resp frameWriter
	measure := func(chunk int) (objects float64, bytesPerChunk uint64) {
		id, err := tr.primary.openScanner(tr, nil, nil, 0, telemetry.TSpan{})
		if err != nil {
			t.Fatal(err)
		}
		defer tr.primary.closeScanner(id)
		var w frameWriter
		w.reset(opScanNext)
		w.str(tr.name)
		w.uvarint(id)
		w.uvarint(uint64(chunk))
		var wire bytes.Buffer
		next := func() {
			wire.Reset()
			if err := w.flush(&wire); err != nil {
				t.Fatal(err)
			}
			if req.readFrame(&wire); req.err != nil {
				t.Fatal(req.err)
			}
			cl.dispatch(&req, &resp, tr.primary)
			if resp.buf[4] != statusOK || len(resp.buf) < chunk*1000 {
				t.Fatalf("chunk of %d rows: status %d, %d bytes", chunk, resp.buf[4], len(resp.buf))
			}
		}
		next() // grow the frames, read the first run
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		objects = testing.AllocsPerRun(runs, next)
		runtime.ReadMemStats(&after)
		return objects, (after.TotalAlloc - before.TotalAlloc) / (runs + 1)
	}
	small, smallBytes := measure(8)
	large, largeBytes := measure(128)
	t.Logf("scan_next server side: %.0f objects / %d bytes for 8 rows, %.0f / %d for 128", small, smallBytes, large, largeBytes)
	if large > small+2 || large > 16 {
		t.Errorf("128-row chunk allocates %.0f objects, 8-row chunk %.0f: want a fixed handful", large, small)
	}
	if largeBytes > 8<<10 {
		t.Errorf("128-row chunk allocates %d bytes for 128 KiB of rows: want O(1)", largeBytes)
	}
}
