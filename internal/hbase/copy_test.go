package hbase

import (
	"bytes"
	"fmt"
	"testing"

	"tpcxiot/internal/telemetry"
)

// copyRows are rows of the kit's shape: a short key and a ~1 KiB value,
// distinct per row so that any aliasing between rows shows.
func copyRows(n int) []Mutation {
	rows := make([]Mutation, n)
	for i := range rows {
		rows[i] = Mutation{
			Key:   []byte(fmt.Sprintf("row-%06d", i)),
			Value: bytes.Repeat([]byte{byte('a' + i%26)}, 1000+i%7),
		}
	}
	return rows
}

// mutateFrame encodes batch as an opMutate request and returns a reader
// positioned at its first field, decoding the writer's own buffer.
func mutateFrame(batch []Mutation) (*frameReader, []byte) {
	var w frameWriter
	w.request(opMutate, telemetry.TSpan{}, "iot,00000")
	w.mutations(batch)
	buf := w.buf[4:]
	return &frameReader{op: buf[0], flags: buf[1], buf: buf, off: 2}, buf
}

// TestMutationsSurviveFrameReuse: the server reads the next request into
// the same frame buffer, so a decoded batch must own its bytes.
func TestMutationsSurviveFrameReuse(t *testing.T) {
	want := copyRows(16)
	f, buf := mutateFrame(want)
	f.request()
	got := f.mutations()
	if f.err != nil {
		t.Fatal(f.err)
	}
	for i := range buf {
		buf[i] = 0xff
	}
	for i := range want {
		if !bytes.Equal(got[i].Key, want[i].Key) || !bytes.Equal(got[i].Value, want[i].Value) {
			t.Fatalf("mutation %d changed with the frame buffer: key %q", i, got[i].Key)
		}
	}
	// Key and value share one allocation; growing the key must not write
	// into the value.
	_ = append(got[0].Key, bytes.Repeat([]byte{'X'}, 64)...)
	if !bytes.Equal(got[0].Value, want[0].Value) {
		t.Fatal("append to a decoded key overwrote its value")
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
		for _, m := range batch {
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

// TestMutationCopyAllocs pins the ingest path's copies at one allocation
// per row: Client.Put below the flush threshold, and the server's decode of
// a batch (plus the batch slice).
func TestMutationCopyAllocs(t *testing.T) {
	rows := copyRows(64)
	f, _ := mutateFrame(rows)
	f.request()
	start := f.off
	if got := testing.AllocsPerRun(20, func() {
		f.off = start
		f.mutations()
	}); got != float64(len(rows)+1) {
		t.Errorf("mutations: %v allocations for %d mutations, want %d", got, len(rows), len(rows)+1)
	}

	_, c := newTestCluster(t, 3, nil)
	c.writeBufferBytes = 1 << 40 // never seal
	const n = 1000
	perRow := testing.AllocsPerRun(1, func() {
		for i := 0; i < n; i++ {
			r := &rows[i%len(rows)]
			if err := c.Put(r.Key, r.Value); err != nil {
				t.Fatal(err)
			}
		}
	}) / n
	// One copy per row; the region's buffer slice grows a few times per
	// thousand rows.
	if perRow < 1 || perRow > 1.01 {
		t.Errorf("Client.Put: %.3f allocations per row, want 1", perRow)
	}
}
