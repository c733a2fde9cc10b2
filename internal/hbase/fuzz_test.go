package hbase

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"testing"
	"time"

	"tpcxiot/internal/kvp"
	"tpcxiot/internal/lsm"
	"tpcxiot/internal/telemetry"
	"tpcxiot/internal/wal"
)

// fuzzSeed is one of FuzzDispatch's seeds: a request frame without its
// length prefix, and whether a server must answer it with an error.
type fuzzSeed struct {
	name    string
	payload []byte
	wantErr bool
}

// fuzzRequests are FuzzDispatch's seeds, in an order a plain test can replay
// (the scanner is closed after its next): a well-formed request of every op,
// and the malformed ones a server is most likely to meet.
func fuzzRequests(region string, scanner uint64) []fuzzSeed {
	frame := func(op byte, fields func(w *frameWriter)) []byte {
		var w frameWriter
		w.reset(op)
		w.str(region)
		if fields != nil {
			fields(&w)
		}
		return append([]byte(nil), w.buf[4:]...)
	}
	key := kvp.Key{Substation: "sub0", Sensor: "sa", Timestamp: 1000}.Encode()
	get := frame(opGet, func(w *frameWriter) { w.bytes(key) })
	mutate := frame(opMutate, func(w *frameWriter) {
		w.uvarint(2)
		w.uvarint(0)
		w.bytes(key)
		w.bytes(kvp.Value{Reading: "21.25", Unit: "C", Padding: make([]byte, 64)}.Encode())
		w.uvarint(1)
		w.bytes([]byte("gone"))
		w.bytes(nil)
	})
	scanOpen := func(limit uint64) []byte {
		return frame(opScanOpen, func(w *frameWriter) {
			w.optBytes(nil)
			w.optBytes([]byte("z"))
			w.uvarint(limit)
		})
	}
	scanNext := func(id, chunk uint64) []byte {
		return frame(opScanNext, func(w *frameWriter) { w.uvarint(id); w.uvarint(chunk) })
	}
	// The get again, sampled: trace id 77, parent span 5 behind the flags.
	traced := append([]byte{opGet, flagTrace, 77, 5}, get[2:]...)
	return []fuzzSeed{
		{"mutate", mutate, false},
		{"get", get, false},
		{"get-traced", traced, false},
		{"scan-open", scanOpen(3), false},
		{"scan-open-huge", scanOpen(math.MaxUint64), false},
		{"scan-next", scanNext(scanner, 2), false},
		{"scan-next-huge", scanNext(scanner, 1<<62), false},
		{"scan-next-nobody", scanNext(1<<40, 2), true},
		{"scan-close", frame(opScanClose, func(w *frameWriter) { w.uvarint(scanner) }), false},
		{"aggregate", frame(opAggregate, func(w *frameWriter) {
			w.optBytes(nil)
			w.optBytes(nil)
			w.uvarint(0)
			w.uvarint(1 << 40)
			w.uvarint(500)
			w.uvarint(uint64(lsm.AggCount | lsm.AggSum))
		}), false},
		{"aggregate-zero-window", frame(opAggregate, func(w *frameWriter) {
			w.optBytes([]byte("a"))
			w.optBytes(nil)
			w.uvarint(math.MaxUint64)
			w.uvarint(0)
			w.uvarint(0)
			w.uvarint(math.MaxUint64)
		}), false},
		{"mutate-count-lies", frame(opMutate, func(w *frameWriter) { w.uvarint(1 << 62) }), true},
		{"truncated-varint", append(frame(opScanNext, nil), 0x80, 0x80), true},
		{"truncated-mutate", mutate[:len(mutate)-10], true},
		{"unknown-region", append([]byte{opGet, 0, 4}, "nope"...), true},
		{"unknown-op", frame(99, nil), true},
		{"trace-flag-alone", []byte{opGet, flagTrace}, true},
	}
}

// putReadings writes forty well-formed sensor readings, so aggregates over
// them fold.
func putReadings(t testing.TB, c *Client) {
	t.Helper()
	for ts := int64(0); ts < 40; ts++ {
		v := kvp.Value{Reading: fmt.Sprintf("%d.5", ts), Unit: "C", Padding: make([]byte, 200)}.Encode()
		k := kvp.Key{Substation: "sub0", Sensor: "sa", Timestamp: ts * 250}.Encode()
		if err := c.Put(k, v); err != nil {
			t.Fatal(err)
		}
	}
}

// FuzzDispatch feeds arbitrary bytes to a live cluster's dispatcher as one
// request frame, the way serveConn would after reading it off a socket.
// Whatever the bytes, dispatch answers with a well-formed OK, error or
// overloaded frame of bounded size — it never panics and never sizes an
// allocation by a number it read off the wire.
func FuzzDispatch(f *testing.F) {
	cl, err := NewCluster(Config{
		Nodes:               3,
		DataDir:             f.TempDir(),
		Store:               lsm.Options{WALSync: wal.SyncNever},
		ScannerLeaseTimeout: 20 * time.Millisecond, // sessions the fuzzer opens and drops
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { cl.Close() })
	if _, err := cl.CreateTable("iot", nil); err != nil {
		f.Fatal(err)
	}
	c, err := cl.NewClient("iot", 0)
	if err != nil {
		f.Fatal(err)
	}
	putReadings(f, c)
	tbl, _ := cl.Table("iot")
	tr := tbl.regions[0]
	if err := tr.replicas[0].Flush(); err != nil {
		f.Fatal(err)
	}
	scanner, err := tr.primary.openScanner(tr.replicas[0], nil, nil, 0, telemetry.TSpan{})
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range fuzzRequests(tr.info.Name, scanner) {
		f.Add(seed.payload)
	}

	f.Fuzz(func(t *testing.T, payload []byte) {
		var req frameReader
		framed := append(binary.LittleEndian.AppendUint32(nil, uint32(len(payload))), payload...)
		if err := req.readFrame(bytes.NewReader(framed)); err != nil {
			return // shorter than an op and a flags byte: the connection is dropped
		}
		var resp frameWriter
		cl.dispatch(&req, &resp, tr.primary)
		if len(resp.buf) > headerLen+scanChunkBytes+len(payload)+(64<<10) {
			t.Fatalf("%d-byte response to a %d-byte request", len(resp.buf), len(payload))
		}
		var wire bytes.Buffer
		if err := resp.flush(&wire); err != nil {
			t.Fatal(err)
		}
		var back frameReader
		if err := back.readFrame(&wire); err != nil {
			t.Fatalf("response does not frame: %v", err)
		}
		switch back.op {
		case statusOK:
			if _, err := back.spans(); err != nil {
				t.Fatalf("span block: %v", err)
			}
		case statusErr:
			if msg, err := back.str(); err != nil || msg == "" {
				t.Fatalf("error frame: %q, %v", msg, err)
			}
		case statusOverloaded:
			if _, err := back.uvarint(); err != nil {
				t.Fatalf("overloaded frame: %v", err)
			}
		default:
			t.Fatalf("status %d", back.op)
		}
	})
}

// TestDispatchSeeds runs FuzzDispatch's seeds as a plain test with the
// outcome each must have, so tier-1 covers them without the fuzz engine.
func TestDispatchSeeds(t *testing.T) {
	cl, c := newTestCluster(t, 3, nil)
	putReadings(t, c)
	tbl, _ := cl.Table("iot")
	tr := tbl.regions[0]
	scanner, err := tr.primary.openScanner(tr.replicas[0], nil, nil, 0, telemetry.TSpan{})
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range fuzzRequests(tr.info.Name, scanner) {
		name, payload := seed.name, seed.payload
		req := frameReader{op: payload[0], flags: payload[1], buf: payload, off: 2}
		var resp frameWriter
		cl.dispatch(&req, &resp, tr.primary)
		if got := resp.buf[4] != statusOK; got != seed.wantErr {
			t.Errorf("%s: status %d (%q), want error=%v", name, resp.buf[4], resp.buf[headerLen:min(len(resp.buf), 80)], seed.wantErr)
		}
	}
}
