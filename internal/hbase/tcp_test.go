package hbase

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"

	"tpcxiot/internal/lsm"
	"tpcxiot/internal/region"
	"tpcxiot/internal/telemetry"
)

func newTCPCluster(t *testing.T, nodes int, splits [][]byte) (*Cluster, *Client) {
	t.Helper()
	cl, err := NewCluster(testConfig(t, nodes))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	if _, err := cl.CreateTable("iot", splits); err != nil {
		t.Fatal(err)
	}
	if err := cl.ServeTCP(); err != nil {
		t.Fatal(err)
	}
	c, err := cl.NewTCPClient("iot", 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return cl, c
}

func TestTCPRequiresServing(t *testing.T) {
	cl, err := NewCluster(testConfig(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.CreateTable("iot", nil)
	if _, err := cl.NewTCPClient("iot", 0); !errors.Is(err, ErrNoTCP) {
		t.Fatalf("TCP client before ServeTCP: %v", err)
	}
	if err := cl.ServeTCP(); err != nil {
		t.Fatal(err)
	}
	if err := cl.ServeTCP(); err != nil {
		t.Fatalf("idempotent ServeTCP: %v", err)
	}
	if addrs := cl.ServerAddrs(); len(addrs) != 3 {
		t.Fatalf("ServerAddrs = %v", addrs)
	}
}

func TestTCPPutGetOverwrite(t *testing.T) {
	_, c := newTCPCluster(t, 3, nil)
	if err := c.Put([]byte("k1"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := getKey(c, []byte("k1"))
	if err != nil || !ok || string(v) != "v1" {
		t.Fatalf("read over TCP = %q,%v,%v", v, ok, err)
	}
	if _, ok, _ := getKey(c, []byte("absent")); ok {
		t.Fatal("absent key present over TCP")
	}
	if err := c.Put([]byte("k1"), []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := getKey(c, []byte("k1")); err != nil || !ok || string(v) != "v2" {
		t.Fatalf("read of the overwrite over TCP = %q,%v,%v", v, ok, err)
	}
}

func TestTCPScanAcrossRegions(t *testing.T) {
	splits := [][]byte{[]byte("k050"), []byte("k100")}
	_, c := newTCPCluster(t, 4, splits)
	for i := 0; i < 150; i++ {
		if err := c.Put([]byte(fmt.Sprintf("k%03d", i)), bytes.Repeat([]byte{'v'}, 64)); err != nil {
			t.Fatal(err)
		}
	}
	rows, err := scanAll(c, []byte("k025"), []byte("k125"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 100 {
		t.Fatalf("TCP cross-region scan = %d rows", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if bytes.Compare(rows[i-1].Key, rows[i].Key) >= 0 {
			t.Fatal("TCP scan out of order")
		}
	}
	// Nil and empty bounds behave like the in-process client.
	all, err := scanAll(c, nil, nil, 0)
	if err != nil || len(all) != 150 {
		t.Fatalf("unbounded TCP scan = %d rows, %v", len(all), err)
	}
	limited, err := scanAll(c, nil, nil, 7)
	if err != nil || len(limited) != 7 {
		t.Fatalf("limited TCP scan = %d rows, %v", len(limited), err)
	}
}

func TestTCPParityWithInproc(t *testing.T) {
	cl, tcpClient := newTCPCluster(t, 3, [][]byte{[]byte("m")})
	inproc, err := cl.NewClient("iot", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer inproc.Close()

	// Writes through TCP are visible in-process and vice versa.
	if err := tcpClient.Put([]byte("from-tcp"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := inproc.Put([]byte("zz-from-inproc"), []byte("2")); err != nil {
		t.Fatal(err)
	}
	// A write is visible to another client once its own client acked it.
	for _, c := range []*Client{tcpClient, inproc} {
		if err := c.FlushCommits(); err != nil {
			t.Fatal(err)
		}
	}
	if v, ok, _ := getKey(inproc, []byte("from-tcp")); !ok || string(v) != "1" {
		t.Fatal("in-process client cannot see TCP write")
	}
	if v, ok, _ := getKey(tcpClient, []byte("zz-from-inproc")); !ok || string(v) != "2" {
		t.Fatal("TCP client cannot see in-process write")
	}
	a, err := scanAll(tcpClient, nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := scanAll(inproc, nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("scan parity broken: %d vs %d rows", len(a), len(b))
	}
	for i := range a {
		if !bytes.Equal(a[i].Key, b[i].Key) || !bytes.Equal(a[i].Value, b[i].Value) {
			t.Fatalf("row %d differs between transports", i)
		}
	}
}

func TestTCPBatchedMutations(t *testing.T) {
	cl, _ := newTCPCluster(t, 3, nil)
	c, err := cl.NewTCPClient("iot", 8*1024)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	val := bytes.Repeat([]byte{'v'}, 512)
	for i := 0; i < 64; i++ {
		if err := c.Put([]byte(fmt.Sprintf("k%03d", i)), val); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	check, _ := cl.NewClient("iot", 0)
	rows, err := scanAll(check, nil, nil, 0)
	if err != nil || len(rows) != 64 {
		t.Fatalf("batched TCP writes: %d rows, %v", len(rows), err)
	}
}

func TestTCPConcurrentClients(t *testing.T) {
	cl, _ := newTCPCluster(t, 4, [][]byte{[]byte("c"), []byte("g")})
	const workers = 6
	const per = 100
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := cl.NewTCPClient("iot", 4*1024)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for i := 0; i < per; i++ {
				k := []byte(fmt.Sprintf("%c-%02d-%04d", 'a'+w, w, i))
				if err := c.Put(k, bytes.Repeat([]byte{'x'}, 64)); err != nil {
					t.Errorf("tcp put: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	c, _ := cl.NewClient("iot", 0)
	rows, err := scanAll(c, nil, nil, 0)
	if err != nil || len(rows) != workers*per {
		t.Fatalf("concurrent TCP writes: %d rows, %v", len(rows), err)
	}
}

func TestTCPLargeValues(t *testing.T) {
	// Full 1 KiB kvp-sized values across the wire.
	_, c := newTCPCluster(t, 3, nil)
	val := bytes.Repeat([]byte{0xab}, 1024)
	for i := 0; i < 200; i++ {
		if err := c.Put([]byte(fmt.Sprintf("pair-%06d", i)), val); err != nil {
			t.Fatal(err)
		}
	}
	rows, err := scanAll(c, nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 200 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if !bytes.Equal(r.Value, val) {
			t.Fatal("value corrupted over the wire")
		}
	}
}

func TestTCPServerSideErrorKeepsConnection(t *testing.T) {
	// A server-side error (scan of a dropped region) must surface as an
	// error without poisoning the connection for subsequent requests.
	cl, c := newTCPCluster(t, 3, nil)
	c.Put([]byte("k"), []byte("v"))
	if err := c.FlushCommits(); err != nil {
		t.Fatal(err)
	}

	// Drop the table and recreate it under a DIFFERENT name: the old
	// client's routing entries now name regions no server knows, so its
	// reads must fail with a server-side error.
	if err := cl.DropTable("iot"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.CreateTable("iot2", nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := getKey(c, []byte("k")); err == nil {
		t.Fatal("stale region read should fail")
	}
	// The same client's connection survives the error: a second request
	// over it gets a clean response too (another server-side error here).
	if _, err := scanAll(c, nil, nil, 0); err == nil {
		t.Fatal("stale region scan should fail")
	}
	// A fresh client for the new table over the same listeners works.
	fresh, err := cl.NewTCPClient("iot2", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if err := fresh.Put([]byte("k2"), []byte("v2")); err != nil {
		t.Fatalf("connection pool poisoned: %v", err)
	}
	if v, ok, err := getKey(fresh, []byte("k2")); err != nil || !ok || string(v) != "v2" {
		t.Fatalf("fresh client read: %q,%v,%v", v, ok, err)
	}
}

func TestClusterCloseStopsTCP(t *testing.T) {
	cl, c := newTCPCluster(t, 3, nil)
	c.Put([]byte("k"), []byte("v"))
	if err := c.FlushCommits(); err != nil {
		t.Fatal(err)
	}
	cl.Close()
	if _, err := cl.NewTCPClient("iot", 0); err == nil {
		t.Fatal("TCP client creatable after close")
	}
}

func TestWireFormatRoundTrip(t *testing.T) {
	var fw frameWriter
	fw.reset(opScanOpen)
	fw.str("region-name")
	fw.optBytes(nil)
	fw.optBytes([]byte{})
	fw.optBytes([]byte("bound"))
	fw.uvarint(12345)
	fw.bytes([]byte("payload"))

	var buf bytes.Buffer
	if err := fw.flush(&buf); err != nil {
		t.Fatal(err)
	}
	var fr frameReader
	if fr.readFrame(&buf); fr.err != nil {
		t.Fatal(fr.err)
	}
	if fr.op != opScanOpen {
		t.Fatalf("op = %d", fr.op)
	}
	if s := fr.str(); s != "region-name" {
		t.Fatalf("str = %q", s)
	}
	if b := fr.optBytes(); b != nil {
		t.Fatalf("nil optional = %v", b)
	}
	if b := fr.optBytes(); b == nil || len(b) != 0 {
		t.Fatalf("empty optional = %v", b)
	}
	if b := fr.optBytes(); string(b) != "bound" {
		t.Fatalf("bound optional = %q", b)
	}
	if v := fr.uvarint(); v != 12345 {
		t.Fatalf("uvarint = %d", v)
	}
	if b := fr.bytes(); string(b) != "payload" {
		t.Fatalf("bytes = %q", b)
	}
	if fr.err != nil {
		t.Fatal(fr.err)
	}
}

func TestWireFormatRejectsGarbage(t *testing.T) {
	var fr frameReader
	// Oversized frame length.
	junk := []byte{0xff, 0xff, 0xff, 0xff, 0x01}
	if fr.readFrame(bytes.NewReader(junk)); !errors.Is(fr.err, ErrBadFrame) {
		t.Fatalf("oversize frame: %v", fr.err)
	}
	// Truncated body.
	short := []byte{0x10, 0, 0, 0, 0x01, 0x02}
	if fr.readFrame(bytes.NewReader(short)); !errors.Is(fr.err, ErrBadFrame) {
		t.Fatalf("truncated frame: %v", fr.err)
	}
	// Field length overruns payload.
	var fw frameWriter
	fw.reset(opScanClose)
	fw.buf = append(fw.buf, 0xff, 0x01, 0x05) // declares a 255-byte field, then one byte
	var buf bytes.Buffer
	fw.flush(&buf)
	if fr.readFrame(&buf); fr.err != nil {
		t.Fatal(fr.err)
	}
	if b := fr.bytes(); b != nil || !errors.Is(fr.err, ErrBadFrame) {
		t.Fatalf("overrunning field: %q, %v", b, fr.err)
	}
	// The failure sticks: every later read is a zero value and the first
	// error stays.
	first := fr.err
	if v, n, b := fr.uvarint(), fr.count(1), fr.optBytes(); v != 0 || n != 0 || b != nil || fr.err != first {
		t.Fatalf("after a failure: %d, %d, %q, %v", v, n, b, fr.err)
	}
}

// TestMutateRefusesBadKeysBeforeFanOut: a mutate frame holding an empty key,
// or a key of another region, is refused whole by the region server before
// the replication fan-out. No member stops on it, so the region keeps
// taking writes; and a client refuses an empty key before buffering it.
func TestMutateRefusesBadKeysBeforeFanOut(t *testing.T) {
	cl, c := newTCPCluster(t, 3, [][]byte{[]byte("m")})
	rpc, err := newTCPTransport(cl)
	if err != nil {
		t.Fatal(err)
	}
	defer rpc.close()
	tbl, _ := cl.Table("iot")
	low := tbl.regions[0] // [nil, "m")
	v := []byte("v")
	for name, key := range map[string][]byte{"empty key": nil, "key of another region": []byte("z")} {
		err := rpc.mutate(low, []Mutation{{Key: []byte("a"), Value: v}, {Key: key, Value: v}}, telemetry.TSpan{})
		if err == nil {
			t.Fatalf("%s: mutate accepted", name)
		}
	}
	if err := rpc.mutate(low, []Mutation{{Key: []byte("b"), Value: v}}, telemetry.TSpan{}); err != nil {
		t.Fatalf("a good mutate after the refused ones: %v", err)
	}
	if err := cl.Quiesce(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < low.group.Factor(); i++ {
		if err := low.group.MemberErr(i); err != nil {
			t.Fatalf("member %d stopped: %v", i, err)
		}
		rep := low.replicas[i].Store()
		if _, ok, _ := rep.Get([]byte("a")); ok {
			t.Fatalf("member %d applied part of a refused batch", i)
		}
		if _, ok, err := rep.Get([]byte("b")); err != nil || !ok {
			t.Fatalf("member %d lacks the good write: ok=%v err=%v", i, ok, err)
		}
	}

	if err := c.Put(nil, v); !errors.Is(err, lsm.ErrBadKey) {
		t.Fatalf("Put of an empty key = %v, want lsm.ErrBadKey", err)
	}
	if n := c.BufferedBytes(); n != 0 {
		t.Fatalf("refused puts buffered %d bytes", n)
	}
	if err := low.info.CheckKeys([]Mutation{{Key: []byte("z")}}); !errors.Is(err, region.ErrOutOfRange) {
		t.Fatalf("CheckKeys of a key above the region = %v", err)
	}
}

// TestTCPMutateReusesRequestFrame: a steady-state mutate of a kit-sized
// batch encodes into the connection's request frame, allocating nothing of
// the request's size — not the frame grown from empty call after call.
func TestTCPMutateReusesRequestFrame(t *testing.T) {
	cl, _ := newTestCluster(t, 3, nil)
	tbl, _ := cl.Table("iot")
	tr := tbl.regions[0]
	// A stand-in server that reads each request into one reused buffer and
	// acks it, allocating nothing per call.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		var hdr [4]byte
		var payload []byte
		ack := []byte{2, 0, 0, 0, statusOK, 0}
		for {
			if _, err := io.ReadFull(conn, hdr[:]); err != nil {
				return
			}
			n := int(binary.LittleEndian.Uint32(hdr[:]))
			if cap(payload) < n {
				payload = make([]byte, n)
			}
			if _, err := io.ReadFull(conn, payload[:n]); err != nil {
				return
			}
			if _, err := conn.Write(ack); err != nil {
				return
			}
		}
	}()
	rpc := &tcpTransport{
		addrs: map[*RegionServer]string{tr.primary: ln.Addr().String()},
		conns: map[*RegionServer]*tcpConn{},
	}
	t.Cleanup(func() { rpc.close() })

	batch := make([]Mutation, 256)
	for i := range batch {
		batch[i] = Mutation{Key: []byte(fmt.Sprintf("k%06d", i)), Value: bytes.Repeat([]byte("v"), 1000)}
	}
	mutate := func() {
		if err := rpc.mutate(tr, batch, telemetry.TSpan{}); err != nil {
			t.Fatal(err)
		}
	}
	mutate() // dial, and grow the frame once
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		mutate()
	}
	runtime.ReadMemStats(&after)
	if perCall := (after.TotalAlloc - before.TotalAlloc) / runs; perCall > 16<<10 {
		t.Fatalf("a 256-row mutate allocates %d bytes per call; the request alone is %d", perCall, len(rpc.conns[tr.primary].req.buf))
	}
}
