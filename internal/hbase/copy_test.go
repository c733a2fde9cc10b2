package hbase

import (
	"bytes"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"tpcxiot/internal/kvp"
	"tpcxiot/internal/lsm"
	"tpcxiot/internal/telemetry"
	"tpcxiot/internal/wal"
)

// batchOf lays rows out as one batch, in order.
func batchOf(rows ...lsm.Write) *lsm.Batch {
	b := new(lsm.Batch)
	for _, r := range rows {
		b.Add(r.Key, r.Value)
	}
	return b
}

// rowsOf reads a batch's rows back, aliasing it.
func rowsOf(b *lsm.Batch) []lsm.Write {
	var rows []lsm.Write
	b.Each(func(key, value []byte) {
		rows = append(rows, lsm.Write{Key: key, Value: value})
	})
	return rows
}

// copyRows are rows of the kit's shape: a short key and a ~1 KiB value,
// distinct per row so that any aliasing between rows shows.
func copyRows(n int) []lsm.Write {
	rows := make([]lsm.Write, n)
	for i := range rows {
		rows[i] = lsm.Write{
			Key:   []byte(fmt.Sprintf("row-%06d", i)),
			Value: bytes.Repeat([]byte{byte('a' + i%26)}, 1000+i%7),
		}
	}
	return rows
}

// mutateFrame encodes rows as an opMutate request and returns a reader
// positioned at its first field, decoding the writer's own buffer.
func mutateFrame(rows []lsm.Write) (*frameReader, []byte) {
	var w frameWriter
	w.request(opMutate, telemetry.TSpan{}, "iot,00000")
	w.batch(batchOf(rows...))
	buf := w.buf[4:]
	return &frameReader{op: buf[0], flags: buf[1], buf: buf, off: 2}, buf
}

// memberRows is every copy's store of tr, key=value in key order, primary
// first.
func memberRows(t *testing.T, cl *Cluster, tr *tableRegion) [][]string {
	t.Helper()
	reps := copies(cl, tr)
	out := make([][]string, len(reps))
	for i, rep := range reps {
		it, err := rep.Store().NewIterator(nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		for ; it.Valid(); it.Next() {
			out[i] = append(out[i], string(it.Key())+"="+string(it.Value()))
		}
		if err := it.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestMutationsSurviveFrameReuse: the server reads the next request into the
// same frame buffer, while every copy's memtable keeps the bytes of the
// batch it applied, so a decoded batch must own its bytes. First the
// decoder alone, then the connection's loop: a mutate read, dispatched and
// applied, then the next frame read into the same buffer.
func TestMutationsSurviveFrameReuse(t *testing.T) {
	want := copyRows(16)
	f, buf := mutateFrame(want)
	f.request()
	got := rowsOf(f.batch())
	if f.err != nil {
		t.Fatal(f.err)
	}
	for i := range buf {
		buf[i] = 0xff
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i].Key, want[i].Key) || !bytes.Equal(got[i].Value, want[i].Value) {
			t.Fatalf("row %d changed with the frame buffer: key %q", i, got[i].Key)
		}
	}
	// Rows share the batch's buffer; growing a key must not write into its
	// value.
	_ = append(got[0].Key, bytes.Repeat([]byte{'X'}, 64)...)
	if !bytes.Equal(got[0].Value, want[0].Value) {
		t.Fatal("append to a decoded key overwrote its value")
	}

	cl, _ := newTestCluster(t, 3, nil)
	tbl, _ := cl.Table("iot")
	tr := tbl.regions[0]
	// Two frames of the same length: the second lands on the first's bytes.
	var wire bytes.Buffer
	for _, prefix := range []string{"a", "b"} {
		rows := copyRows(16)
		for i := range rows {
			rows[i].Key = append([]byte(prefix), rows[i].Key...)
		}
		var w frameWriter
		w.request(opMutate, telemetry.TSpan{}, tr.name)
		w.batch(batchOf(rows...))
		if err := w.flush(&wire); err != nil {
			t.Fatal(err)
		}
	}
	var req frameReader
	var resp frameWriter
	if req.readFrame(&wire); req.err != nil {
		t.Fatal(req.err)
	}
	frame := &req.buf[0]
	if cl.dispatch(&req, &resp, tr.primary); resp.buf[4] != statusOK {
		t.Fatalf("mutate: status %d (%q)", resp.buf[4], resp.buf[headerLen:])
	}
	if err := cl.Quiesce(); err != nil {
		t.Fatal(err)
	}
	before := memberRows(t, cl, tr)
	if req.readFrame(&wire); req.err != nil || &req.buf[0] != frame {
		t.Fatalf("the next frame did not reuse the buffer (err %v)", req.err)
	}
	if after := memberRows(t, cl, tr); !reflect.DeepEqual(after, before) {
		t.Fatal("the next frame read into the buffer changed the stored rows")
	}
	for i, rows := range before {
		if len(rows) != 16 {
			t.Fatalf("copy %d holds %d rows, want 16", i, len(rows))
		}
	}
}

// TestClientPutCopiesRows: the workload fills one key and one value buffer
// per row and reuses them for the next, so every buffered row must own its
// bytes. The kit's checks count rows only and would not see aliasing.
func TestClientPutCopiesRows(t *testing.T) {
	cl, _ := newTestCluster(t, 3, [][]byte{[]byte("row-000100")})
	c, err := cl.NewClient("iot", 1<<30) // no autoflush
	if err != nil {
		t.Fatal(err)
	}
	want := copyRows(200)
	var keyBuf, valBuf []byte
	for _, r := range want {
		keyBuf = append(keyBuf[:0], r.Key...)
		valBuf = append(valBuf[:0], r.Value...)
		if err := c.Put(keyBuf, valBuf); err != nil {
			t.Fatal(err)
		}
	}
	for i := range keyBuf {
		keyBuf[i] = 0
	}
	for i := range valBuf {
		valBuf[i] = 0
	}
	for _, batch := range c.buffers {
		for _, m := range rowsOf(batch) {
			_ = append(m.Key, 'X') // must not reach the value
		}
	}
	if err := c.FlushCommits(); err != nil {
		t.Fatal(err)
	}
	rows, err := scanAll(c, nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(want) {
		t.Fatalf("scanned %d rows, want %d", len(rows), len(want))
	}
	for i, r := range rows {
		if !bytes.Equal(r.Key, want[i].Key) || !bytes.Equal(r.Value, want[i].Value) {
			t.Fatalf("row %d: key %q, %d value bytes; want %q, %d", i, r.Key, len(r.Value), want[i].Key, len(want[i].Value))
		}
	}
}

// TestMutationCopyAllocs pins the ingest path's allocations per batch, not
// per row: the server decodes a mutate frame of any size into one batch (its
// struct and its buffer), and Client.Put copies rows into its region's
// batch, which starts with the room the region's last sealed batch took, so
// it never grows: a batch of the same rows costs its struct and its buffer,
// and sealing it the list of sealed batches.
func TestMutationCopyAllocs(t *testing.T) {
	for _, n := range []int{1, 64, 512} {
		f, _ := mutateFrame(copyRows(n))
		f.request()
		start := f.off
		got := testing.AllocsPerRun(20, func() {
			f.off = start
			f.batch()
		})
		t.Logf("batch: %v allocations for %d rows", got, n)
		if got > 2 {
			t.Errorf("batch: %v allocations for %d rows, want at most 2", got, n)
		}
	}

	rows := copyRows(64)
	_, c := newTestCluster(t, 3, nil)
	c.writeBufferBytes = 1 << 40 // never seal on a Put
	const n = 1000
	fill := func() {
		for i := 0; i < n; i++ {
			r := &rows[i%len(rows)]
			if err := c.Put(r.Key, r.Value); err != nil {
				t.Fatal(err)
			}
		}
	}
	fill()
	c.seal() // the region's first batch grew from empty; later ones need not
	var sealed []regionBatch
	perBatch := testing.AllocsPerRun(1, func() {
		fill()
		sealed = c.seal()
	})
	t.Logf("Client.Put: %v allocations for a batch of %d rows", perBatch, n)
	if perBatch > 3 {
		t.Errorf("Client.Put: %v allocations for a batch of %d rows, want at most 3", perBatch, n)
	}
	if b := sealed[0].batch.Bytes(); cap(b) != len(b) {
		t.Errorf("a batch of the last one's rows has %d bytes of room for %d", cap(b), len(b))
	}
}

// TestReplicasLogIdenticalRecords: rows written over TCP to a three-node
// cluster syncing every append reach every copy of a region as the same WAL
// records, byte for byte and in the same order, because the copies log the
// one batch the server decoded. A member rebuilt from another's log relies
// on this.
func TestReplicasLogIdenticalRecords(t *testing.T) {
	cfg := testConfig(t, 3)
	cfg.Store.WALSync = wal.SyncOnAppend
	cl, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	split := kvp.Key{Substation: "sub1", Sensor: "s", Timestamp: 0}.Encode()
	if _, err := cl.CreateTable("iot", [][]byte{split}); err != nil {
		t.Fatal(err)
	}
	if err := cl.ServeTCP(); err != nil {
		t.Fatal(err)
	}
	c, err := cl.NewTCPClient("iot", 16<<10)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 300; i++ {
		key := kvp.Key{Substation: fmt.Sprintf("sub%d", i%2), Sensor: "s", Timestamp: int64(i)}.Encode()
		if err := c.Put(key, bytes.Repeat([]byte{byte('a' + i%26)}, 200+i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.FlushCommits(); err != nil {
		t.Fatal(err)
	}
	if err := cl.Quiesce(); err != nil {
		t.Fatal(err)
	}
	tbl, _ := cl.Table("iot")
	for _, tr := range tbl.regions {
		var first [][]byte
		for i, srv := range cl.servers {
			var recs [][]byte
			if err := wal.Replay(filepath.Join(srv.dir, tr.name, "wal"), nil, func(rec []byte) error {
				recs = append(recs, rec)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if len(recs) == 0 {
				t.Fatalf("%s on server %d: empty WAL", tr.name, i)
			}
			if i == 0 {
				first = recs
			} else if !reflect.DeepEqual(recs, first) {
				t.Fatalf("%s: server %d logged %d records, not server 0's %d byte for byte", tr.name, i, len(recs), len(first))
			}
		}
	}
}
