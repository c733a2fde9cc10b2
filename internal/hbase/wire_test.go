package hbase

import (
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"net"
	"reflect"
	"testing"

	"tpcxiot/internal/kvp"
	"tpcxiot/internal/lsm"
	"tpcxiot/internal/telemetry"
)

// wireCase pins one op's frames, as hex payloads without the length prefix:
// the request a tcpTransport sends without and under a sampled span, and
// the response dispatch answers without and with a span block.
type wireCase struct {
	name            string
	call            func(rpc *tcpTransport, tr *tableRegion, sp telemetry.TSpan) (any, error)
	want            any // what the client decodes from either response
	req, reqTraced  string
	resp, respSpans string
}

// wireKey and wireReading are the kvp-shaped rows the pinned frames carry.
func wireKey(ts int64) []byte { return kvp.Key{Substation: "s", Sensor: "a", Timestamp: ts}.Encode() }

func wireReading(r string) []byte { return kvp.Value{Reading: r, Unit: "C"}.Encode() }

// unhex decodes a pinned frame.
func unhex(t testing.TB, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// wireSpans is the server span block of the pinned responses; wireTrace is
// the sampled client span the traced requests carry.
var (
	wireSpans = []telemetry.SpanRecord{{SpanID: 9, ParentID: 5, StartNs: 100, DurNs: 20, Name: "server.op", Service: "rs0"}}
	wireTrace = telemetry.TraceContext{TraceID: 77, SpanID: 5, Sampled: true}
)

// wireCases are the pinned frames of every op, in an order a fresh
// cluster answers deterministically (scanner 1 is open until its close).
// The bytes were recorded from the encoders the protocol shipped with; a
// change here is a wire-format change.
func wireCases() []wireCase {
	return []wireCase{
		{
			name: "mutate",
			call: func(rpc *tcpTransport, tr *tableRegion, sp telemetry.TSpan) (any, error) {
				return nil, rpc.mutate(tr, batchOf(
					lsm.Write{Key: wireKey(0), Value: wireReading("1.5")},
					lsm.Write{Key: wireKey(250), Value: wireReading("2.5")},
				), sp)
			},
			req:       "070009696f742c3030303030022c020c06730061008000000000000000010301312e3543020c067300610080000000000000fa010301322e3543",
			reqTraced: "07014d0509696f742c3030303030022c020c06730061008000000000000000010301312e3543020c067300610080000000000000fa010301322e3543",
			resp:      "0000",
			respSpans: "00020109056414097365727665722e6f7003727330",
		},
		{
			name: "scan-open",
			call: func(rpc *tcpTransport, tr *tableRegion, sp telemetry.TSpan) (any, error) {
				return rpc.openScanner(tr, nil, []byte("z"), 5, sp)
			},
			want:      uint64(1),
			req:       "030009696f742c30303030300001017a05",
			reqTraced: "03014d0509696f742c30303030300001017a05",
			resp:      "000001",
			respSpans: "00020109056414097365727665722e6f700372733001",
		},
		{
			name: "scan-next",
			call: func(rpc *tcpTransport, tr *tableRegion, sp telemetry.TSpan) (any, error) {
				rows, more, err := rpc.scanNext(tr, 1, 1, sp)
				return []any{rows, more}, err
			},
			want:      []any{[]Row{{Key: wireKey(0), Value: wireReading("1.5")}}, true},
			req:       "040009696f742c30303030300101",
			reqTraced: "04014d0509696f742c30303030300101",
			resp:      "0000018180000c730061008000000000000000060301312e3543",
			respSpans: "00020109056414097365727665722e6f7003727330018180000c730061008000000000000000060301312e3543",
		},
		{
			name: "scan-close",
			call: func(rpc *tcpTransport, tr *tableRegion, sp telemetry.TSpan) (any, error) {
				return nil, rpc.closeScanner(tr, 1, sp)
			},
			req:       "050009696f742c303030303001",
			reqTraced: "050009696f742c303030303001",
			resp:      "0000",
			respSpans: "00020109056414097365727665722e6f7003727330",
		},
		{
			name: "aggregate",
			call: func(rpc *tcpTransport, tr *tableRegion, sp telemetry.TSpan) (any, error) {
				return rpc.aggregate(tr, nil, nil, 0, 1000, 500, lsm.AggCount|lsm.AggMin|lsm.AggMax|lsm.AggSum, sp)
			},
			want: lsm.AggResult{RowsFolded: 2, Windows: []lsm.WindowAgg{
				{Series: kvp.SensorPrefix("s", "a"), WindowStart: 0, Count: 2, Min: 1.5, Max: 2.5, Sum: 4},
			}},
			req:       "060009696f742c3030303030000000e807f4030f",
			reqTraced: "06014d0509696f742c3030303030000000e807f4030f",
			resp:      "000002010473006100000280808080808080fc3f808080808080808240808080808080808840",
			respSpans: "00020109056414097365727665722e6f700372733002010473006100000280808080808080fc3f808080808080808240808080808080808840",
		},
	}
}

// TestWireBytes pins the protocol byte for byte. For every op the client
// sends the pinned request, untraced and traced, to a stand-in server that
// answers with the pinned response, and decodes what the op returns (and,
// traced, stitches the span block); the cluster's dispatcher answers the
// pinned untraced request with the pinned response.
func TestWireBytes(t *testing.T) {
	cl, _ := newTestCluster(t, 3, nil)
	tbl, _ := cl.Table("iot")
	tr := tbl.regions[0]

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	requests, replies := make(chan []byte, 1), make(chan []byte, 1)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				for {
					var hdr [4]byte
					if _, err := io.ReadFull(conn, hdr[:]); err != nil {
						return
					}
					payload := make([]byte, binary.LittleEndian.Uint32(hdr[:]))
					if _, err := io.ReadFull(conn, payload); err != nil {
						return
					}
					requests <- payload
					reply := <-replies
					conn.Write(append(binary.LittleEndian.AppendUint32(nil, uint32(len(reply))), reply...))
				}
			}()
		}
	}()
	rpc := &tcpTransport{
		addrs: map[*RegionServer]string{tr.primary: ln.Addr().String()},
		conns: map[*RegionServer]*tcpConn{},
	}
	t.Cleanup(func() { rpc.close() })

	pinned := func(what, got, want string) {
		t.Helper()
		if got != want {
			t.Errorf("%s:\n got %s\nwant %s", what, got, want)
		}
	}
	for _, c := range wireCases() {
		// The client: encode, round trip through the stand-in, decode.
		for _, traced := range []bool{false, true} {
			sp, op, req, resp := telemetry.TSpan{}, (*telemetry.OpTrace)(nil), c.req, c.resp
			if traced {
				op = telemetry.JoinRemote(wireTrace)
				sp, req, resp = op.RemoteParent(wireTrace), c.reqTraced, c.respSpans
			}
			replies <- unhex(t, resp)
			got, err := c.call(rpc, tr, sp)
			pinned(fmt.Sprintf("%s request (traced %v)", c.name, traced), hex.EncodeToString(<-requests), req)
			if err != nil || !reflect.DeepEqual(got, c.want) {
				t.Errorf("%s (traced %v): client decoded %v, %v; want %v", c.name, traced, got, err, c.want)
			}
			if !traced {
				continue
			}
			var want []telemetry.SpanRecord // a scan close sends no trace header
			if c.reqTraced != c.req {
				want = append(want, wireSpans...)
				want[0].TraceID = wireTrace.TraceID
			}
			if stitched := op.TakeSpans(); !reflect.DeepEqual(stitched, want) {
				t.Errorf("%s: stitched %+v, want %+v", c.name, stitched, want)
			}
		}

		// The server: dispatch the untraced request, then insert a span block.
		payload := unhex(t, c.req)
		var resp frameWriter
		cl.dispatch(&frameReader{op: payload[0], flags: payload[1], buf: payload, off: 2}, &resp, tr.primary)
		pinned(c.name+" response", hex.EncodeToString(resp.buf[4:]), c.resp)
		resp.spans(wireSpans)
		pinned(c.name+" response with spans", hex.EncodeToString(resp.buf[4:]), c.respSpans)
	}
}
