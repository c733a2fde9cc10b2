package hbase

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
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

// opRetired is the opcode of the retired point read, and opRetiredMutate
// that of the mutate whose body carried its rows one by one. Frames
// carrying them are kept as seeds: a server refuses them as an unknown
// opcode, before any handler runs.
const (
	opRetiredMutate byte = 1
	opRetired       byte = 2
)

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
	get := frame(opRetired, func(w *frameWriter) { w.bytes(key) })
	mutateOf := func(count uint64, body []byte) []byte {
		return frame(opMutate, func(w *frameWriter) { w.uvarint(count); w.bytes(body) })
	}
	// A put and its overwrite.
	mutate := mutateOf(2, batchOf(
		lsm.Write{Key: key, Value: kvp.Value{Reading: "21.25", Unit: "C", Padding: make([]byte, 64)}.Encode()},
		lsm.Write{Key: key, Value: kvp.Value{Reading: "21.5", Unit: "C"}.Encode()},
	).Bytes())
	// Two puts of keys the region does not hold yet: a refused mutate
	// applies neither.
	var fresh []byte
	for ts := int64(0); ts < 2; ts++ {
		fresh = append(fresh, batchOf(lsm.Write{
			Key:   kvp.Key{Substation: "sub0", Sensor: "sb", Timestamp: ts}.Encode(),
			Value: kvp.Value{Reading: "1.5", Unit: "C"}.Encode(),
		}).Bytes()...)
	}
	// The second put cut inside its value, the byte string still whole: the
	// put in front of the cut decodes.
	torn := mutateOf(2, fresh[:len(fresh)-1])
	// The first put's op byte that of the layout before the value length.
	oldLayout := mutateOf(2, append([]byte{1}, fresh[1:]...))
	// The fresh puts as the retired opcode 1 carried them: a flag byte, the
	// key and the value, each row on its own.
	retiredMutate := frame(opRetiredMutate, func(w *frameWriter) {
		w.uvarint(2)
		for ts := int64(0); ts < 2; ts++ {
			w.uvarint(0)
			w.bytes(kvp.Key{Substation: "sub0", Sensor: "sb", Timestamp: ts}.Encode())
			w.bytes(kvp.Value{Reading: "1.5", Unit: "C"}.Encode())
		}
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
	traced := append([]byte{opRetired, flagTrace, 77, 5}, get[2:]...)
	return []fuzzSeed{
		{"mutate", mutate, false},
		{"get", get, true},
		{"get-traced", traced, true},
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
		{"mutate-empty-key", mutateOf(2, batchOf(
			lsm.Write{Key: key, Value: []byte("v")},
			lsm.Write{Key: nil, Value: []byte("v")},
		).Bytes()), true},
		{"mutate-count-lies", mutateOf(3, fresh), true},
		{"mutate-count-short", mutateOf(1, fresh), true},
		{"mutate-count-huge", frame(opMutate, func(w *frameWriter) { w.uvarint(1 << 62) }), true},
		{"mutate-torn-put", torn, true},
		{"mutate-old-layout", oldLayout, true},
		{"retired-mutate", retiredMutate, true},
		{"truncated-varint", append(frame(opScanNext, nil), 0x80, 0x80), true},
		{"truncated-mutate", mutate[:len(mutate)-10], true},
		{"unknown-region", append([]byte{opRetired, 0, 4}, "nope"...), true},
		{"unknown-op", frame(99, nil), true},
		{"trace-flag-alone", []byte{opRetired, flagTrace}, true},
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
	if err := c.FlushCommits(); err != nil {
		f.Fatal(err)
	}
	tbl, _ := cl.Table("iot")
	tr := tbl.regions[0]
	if err := copies(cl, tr)[0].Flush(); err != nil {
		f.Fatal(err)
	}
	scanner, err := tr.primary.openScanner(tr, nil, nil, 0, telemetry.TSpan{})
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range fuzzRequests(tr.name, scanner) {
		f.Add(seed.payload)
	}

	f.Fuzz(func(t *testing.T, payload []byte) {
		var req frameReader
		framed := append(binary.LittleEndian.AppendUint32(nil, uint32(len(payload))), payload...)
		if req.readFrame(bytes.NewReader(framed)); req.err != nil {
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
		if back.readFrame(&wire); back.err != nil {
			t.Fatalf("response does not frame: %v", back.err)
		}
		// OK with a well-formed span block, an error with its message, or a
		// load-shed with its hint.
		if back.status(telemetry.TSpan{}); errors.Is(back.err, ErrBadFrame) || back.err != nil && back.err.Error() == "" {
			t.Fatalf("status %d: %v", back.op, back.err)
		}
	})
}

// TestDispatchSeeds runs FuzzDispatch's seeds as a plain test with the
// outcome each must have, so tier-1 covers them without the fuzz engine. No
// seed may leave a replication member with a standing error: the region
// must keep taking writes. A refused seed leaves every member's rows as they
// were.
func TestDispatchSeeds(t *testing.T) {
	cl, c := newTestCluster(t, 3, nil)
	putReadings(t, c)
	if err := c.FlushCommits(); err != nil {
		t.Fatal(err)
	}
	if err := cl.Quiesce(); err != nil {
		t.Fatal(err)
	}
	tbl, _ := cl.Table("iot")
	tr := tbl.regions[0]
	scanner, err := tr.primary.openScanner(tr, nil, nil, 0, telemetry.TSpan{})
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range fuzzRequests(tr.name, scanner) {
		name, payload := seed.name, seed.payload
		before := memberRows(t, cl, tr)
		req := frameReader{op: payload[0], flags: payload[1], buf: payload, off: 2}
		var resp frameWriter
		handled := tr.primary.requests.Load()
		cl.dispatch(&req, &resp, tr.primary)
		if got := resp.buf[4] != statusOK; got != seed.wantErr {
			t.Errorf("%s: status %d (%q), want error=%v", name, resp.buf[4], resp.buf[headerLen:min(len(resp.buf), 80)], seed.wantErr)
		}
		// Every handler counts a request; a retired opcode reaches none, and
		// neither does a mutate whose batch does not decode or holds other
		// than its count of rows.
		undecoded := seed.wantErr && payload[0] == opMutate && name != "mutate-empty-key"
		if (payload[0] == opRetired || payload[0] == opRetiredMutate || undecoded) && tr.primary.requests.Load() != handled {
			t.Errorf("%s: the request reached a handler", name)
		}
		// A refused request changes no member's rows: a mutate that does not
		// decode (mutate-torn-put, mutate-old-layout, truncated-mutate) or
		// whose count lies applies none of its batch, not even the puts in
		// front of the fault, and neither does the retired mutate.
		if after := memberRows(t, cl, tr); seed.wantErr && !reflect.DeepEqual(after, before) {
			t.Errorf("%s: changed the region's rows (%d before, %d after on the primary)", name, len(before[0]), len(after[0]))
		}
		if err := cl.Quiesce(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		for i, stopped := range tr.group.Stats().Stopped {
			if stopped {
				t.Fatalf("%s: member %d stopped", name, i)
			}
		}
	}
}

// errServer stands for the error string of a statusErr response when
// responseSeed states what a response decodes to.
var errServer = errors.New("server error")

// responseSeed is one of FuzzResponse's seeds: a response frame without its
// length prefix, the op it answers, and what decoding it ends in: nil,
// ErrBadFrame, ErrOverloaded or errServer.
type responseSeed struct {
	name    string
	payload []byte
	op      byte
	want    error
}

// responseSeeds are FuzzResponse's seeds: the pinned response of every op
// with and without a span block, and the malformed ones a client is most
// likely to meet.
func responseSeeds(t testing.TB) []responseSeed {
	var seeds []responseSeed
	for _, c := range wireCases() {
		op := unhex(t, c.req)[0]
		seeds = append(seeds,
			responseSeed{c.name, unhex(t, c.resp), op, nil},
			responseSeed{c.name + "-spans", unhex(t, c.respSpans), op, nil})
	}
	// The responses of the retired point read, behind mutate's: a frame no
	// client asks for any more, which read as a scan open's result still
	// decodes.
	seeds = slices.Insert(seeds, 2,
		responseSeed{"retired-get", unhex(t, "000001060301322e3543"), opScanOpen, nil},
		responseSeed{"retired-get-spans", unhex(t, "00020109056414097365727665722e6f700372733001060301322e3543"), opScanOpen, nil})
	frame := func(status byte, fields func(w *frameWriter)) []byte {
		var w frameWriter
		w.reset(status)
		fields(&w)
		return append([]byte(nil), w.buf[4:]...)
	}
	chunk := frame(statusOK, func(w *frameWriter) {
		at := w.beginChunk()
		w.row([]byte("k"), []byte("v"))
		w.endChunk(at, 1, false)
	})
	return append(seeds,
		responseSeed{"server-error", frame(statusErr, func(w *frameWriter) { w.str("hbase: unknown opcode 2") }), opScanOpen, errServer},
		responseSeed{"overloaded", frame(statusOverloaded, func(w *frameWriter) { w.uvarint(1500) }), opMutate, ErrOverloaded},
		responseSeed{"truncated-chunk", chunk[:len(chunk)-1], opScanNext, ErrBadFrame},
		responseSeed{"row-count-lies", frame(statusOK, func(w *frameWriter) { w.endChunk(w.beginChunk(), 1<<20, true) }), opScanNext, ErrBadFrame},
		responseSeed{"window-count-lies", frame(statusOK, func(w *frameWriter) { w.uvarint(2); w.uvarint(1 << 40) }), opAggregate, ErrBadFrame},
		responseSeed{"span-count-lies", frame(statusOK, func(w *frameWriter) { w.buf[flagsIdx] |= flagSpans; w.uvarint(1 << 30) }), opScanOpen, ErrBadFrame},
		responseSeed{"unknown-status", []byte{7, 0}, opMutate, ErrBadFrame},
	)
}

// decodeResponse reads payload as a response frame the way call does — the
// status, and the span block stitched under a sampled span — and then with
// every op's result decoder, returning what each op's decoding ended in
// (nil, ErrBadFrame, ErrOverloaded or errServer). Any other error fails t,
// as does a count off the wire that sized an allocation past the bytes
// that carried it.
func decodeResponse(t *testing.T, payload []byte) map[byte]error {
	var resp frameReader
	resp.readFrame(bytes.NewReader(append(binary.LittleEndian.AppendUint32(nil, uint32(len(payload))), payload...)))
	if resp.err != nil {
		if len(payload) >= 2 {
			t.Fatalf("a %d-byte frame does not frame: %v", len(payload), resp.err)
		}
		return nil
	}
	trace := telemetry.JoinRemote(wireTrace)
	resp.status(trace.RemoteParent(wireTrace))
	if spans := trace.TakeSpans(); 6*len(spans) > len(payload) {
		t.Fatalf("%d spans stitched from %d bytes", len(spans), len(payload))
	}
	// Each decoder returns the bytes its counts claim at the least.
	decoders := map[byte]func(r *frameReader) int{
		opMutate:    func(*frameReader) int { return 0 },
		opScanOpen:  func(r *frameReader) int { r.uvarint(); return 0 },
		opScanNext:  func(r *frameReader) int { rows, _ := r.chunk(); return 2 * cap(rows) },
		opScanClose: func(*frameReader) int { return 0 },
		opAggregate: func(r *frameReader) int { return 6 * cap(r.aggResult().Windows) },
	}
	out := make(map[byte]error, len(decoders))
	for op, decode := range decoders {
		r := resp // every decoder reads the same results
		if n := decode(&r); n > len(payload) {
			t.Fatalf("op %d: counts claim %d bytes of a %d-byte frame", op, n, len(payload))
		}
		var over *OverloadedError
		switch {
		case r.err == nil:
			out[op] = nil
		case errors.Is(r.err, ErrBadFrame):
			out[op] = ErrBadFrame
		case errors.As(r.err, &over):
			out[op] = ErrOverloaded
		case r.op == statusErr:
			out[op] = errServer
		default:
			t.Fatalf("op %d: %v is none of the protocol's errors", op, r.err)
		}
	}
	return out
}

// FuzzResponse feeds arbitrary bytes to the client as one response frame.
// Whatever the bytes, decoding ends in results, ErrBadFrame, the server's
// error string or an *OverloadedError — it never panics and never sizes an
// allocation by a number it read off the wire.
func FuzzResponse(f *testing.F) {
	for _, seed := range responseSeeds(f) {
		f.Add(seed.payload)
	}
	f.Fuzz(func(t *testing.T, payload []byte) { decodeResponse(t, payload) })
}

// TestResponseSeeds runs FuzzResponse's seeds as a plain test with the
// outcome each must have for the op it answers.
func TestResponseSeeds(t *testing.T) {
	for _, seed := range responseSeeds(t) {
		if got := decodeResponse(t, seed.payload)[seed.op]; got != seed.want {
			t.Errorf("%s: decoding for op %d ended in %v, want %v", seed.name, seed.op, got, seed.want)
		}
	}
}
