package hbase

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"tpcxiot/internal/lsm"
	"tpcxiot/internal/replication"
	"tpcxiot/internal/telemetry"
	"tpcxiot/internal/wal"
)

// newTracedTCPCluster builds a TCP cluster that samples every client
// operation into the returned tracer.
func newTracedTCPCluster(t *testing.T, nodes int, splits [][]byte) (*Client, *telemetry.Tracer) {
	t.Helper()
	tracer := telemetry.NewTracer(telemetry.TracerOptions{SampleEvery: 1})
	cl, err := NewCluster(Config{
		Nodes:   nodes,
		DataDir: t.TempDir(),
		Store:   lsm.Options{WALSync: wal.SyncNever},
		Tracer:  tracer,
	})
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
	return c, tracer
}

// traceByRoot finds the first completed trace whose root span has the name.
func traceByRoot(tr *telemetry.Tracer, root string) *telemetry.Trace {
	return traceWith(tr, root, root)
}

// traceWith finds the first completed trace whose root span has the name
// root and which holds a span named span.
func traceWith(tr *telemetry.Tracer, root, span string) *telemetry.Trace {
	for _, trace := range tr.Traces() {
		if _, ok := spanNames(trace)[span]; ok && trace.Root().Name == root {
			return trace
		}
	}
	return nil
}

// putFlushTrace puts one row through c, flushes, and returns the trace of
// the flush that shipped it: the sealed buffer is a trace root of its own,
// client.flush, apart from the client.put that sealed it.
func putFlushTrace(t *testing.T, c *Client, tracer *telemetry.Tracer) *telemetry.Trace {
	t.Helper()
	if err := c.Put([]byte("k1"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := c.FlushCommits(); err != nil {
		t.Fatal(err)
	}
	if traceByRoot(tracer, "client.put") == nil {
		t.Fatalf("no client.put trace; have %d traces", len(tracer.Traces()))
	}
	trace := traceWith(tracer, "client.flush", "rpc.mutate")
	if trace == nil {
		t.Fatalf("no client.flush trace shipping the put; have %d traces", len(tracer.Traces()))
	}
	return trace
}

// spanNames collects the set of span names in a trace.
func spanNames(tr *telemetry.Trace) map[string]telemetry.SpanRecord {
	out := make(map[string]telemetry.SpanRecord, len(tr.Spans))
	for _, s := range tr.Spans {
		out[s.Name] = s
	}
	return out
}

// TestTCPPutTraceStitched is the acceptance test for the tracing tentpole:
// the flush that ships one Put over the TCP wire protocol must yield a
// single stitched trace whose client-side span tree contains the server's
// WAL and LSM child spans, all sharing the client's trace id.
func TestTCPPutTraceStitched(t *testing.T) {
	c, tracer := newTracedTCPCluster(t, 3, nil)
	trace := putFlushTrace(t, c, tracer)
	names := spanNames(trace)
	for _, want := range []string{
		"client.flush", "rpc.mutate", // client side
		"server.mutate", "replication.fanout", // server side, shipped back
		"region.apply", "lsm.apply_batch", "wal.append", "lsm.memtable_insert",
	} {
		if _, ok := names[want]; !ok {
			t.Errorf("trace missing span %q; has %v", want, keys(names))
		}
	}
	root := trace.Root()
	for name, s := range names {
		if s.TraceID != root.TraceID {
			t.Errorf("span %q trace id %x, want %x", name, s.TraceID, root.TraceID)
		}
	}
	// The server span parents under the client's RPC span: the tree is
	// stitched, not two disjoint fragments.
	if names["server.mutate"].ParentID != names["rpc.mutate"].SpanID {
		t.Errorf("server.mutate parent %x, want rpc.mutate %x",
			names["server.mutate"].ParentID, names["rpc.mutate"].SpanID)
	}
	// Every replica records its own engine spans, and a straggler acked
	// after the quorum may ship its wal.append before its lsm.apply_batch
	// ends: some wal.append must hang under an lsm.apply_batch of this trace.
	batches := map[uint64]bool{}
	for _, s := range trace.Spans {
		if s.Name == "lsm.apply_batch" {
			batches[s.SpanID] = true
		}
	}
	stitched := false
	for _, s := range trace.Spans {
		if s.Name == "wal.append" && batches[s.ParentID] {
			stitched = true
		}
	}
	if !stitched {
		t.Errorf("no wal.append span parents under an lsm.apply_batch span")
	}
	// Engine spans carry the region's service (node/region), not the client's.
	if svc := names["lsm.apply_batch"].Service; !strings.Contains(svc, "/iot") {
		t.Errorf("lsm.apply_batch service = %q, want node-NN/region", svc)
	}

	// The whole buffer must export as valid Chrome trace-event JSON.
	var buf bytes.Buffer
	if err := telemetry.WriteChromeTrace(&buf, tracer.Traces()); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("chrome trace export is not valid JSON")
	}
}

// TestTCPScanChunkTraced asserts the scanner open and each chunk fetch
// produce their own stitched traces containing the server's scan_open and
// scan_next spans — the chunk's span block sits in front of rows that were
// encoded before it existed, and the rows still parse behind it.
func TestTCPScanChunkTraced(t *testing.T) {
	c, tracer := newTracedTCPCluster(t, 3, nil)
	const n = DefaultScanChunk + 64
	for i := 0; i < n; i++ {
		if err := c.Put([]byte(fmt.Sprintf("k%03d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	rows, err := scanAll(c, nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != n {
		t.Fatalf("scanned %d rows", len(rows))
	}
	for i, r := range rows {
		if want := fmt.Sprintf("k%03d", i); string(r.Key) != want || string(r.Value) != "v" {
			t.Fatalf("row %d = %q/%q, want %q/v", i, r.Key, r.Value, want)
		}
	}

	open := traceByRoot(tracer, "client.scan_open")
	if open == nil {
		t.Fatal("no client.scan_open trace")
	}
	names := spanNames(open)
	for _, want := range []string{"rpc.scan_open", "server.scan_open"} {
		if _, ok := names[want]; !ok {
			t.Errorf("open trace missing span %q; has %v", want, keys(names))
		}
	}
	if names["server.scan_open"].ParentID != names["rpc.scan_open"].SpanID {
		t.Error("server.scan_open not parented under rpc.scan_open")
	}

	trace := traceByRoot(tracer, "client.scan_chunk")
	if trace == nil {
		t.Fatal("no client.scan_chunk trace")
	}
	names = spanNames(trace)
	for _, want := range []string{"client.scan_chunk", "rpc.scan_next", "server.scan_next"} {
		if _, ok := names[want]; !ok {
			t.Errorf("chunk trace missing span %q; has %v", want, keys(names))
		}
	}
	if names["server.scan_next"].ParentID != names["rpc.scan_next"].SpanID {
		t.Error("server.scan_next not parented under rpc.scan_next")
	}
}

// TestInprocPutTraced asserts the in-process transport threads spans through
// without a wire crossing: the flush's tree has the same shape as over TCP,
// with no span block involved.
func TestInprocPutTraced(t *testing.T) {
	tracer := telemetry.NewTracer(telemetry.TracerOptions{SampleEvery: 1})
	cl, err := NewCluster(Config{
		Nodes:   3,
		DataDir: t.TempDir(),
		Store:   lsm.Options{WALSync: wal.SyncNever},
		Tracer:  tracer,
	})
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
	defer c.Close()

	names := spanNames(putFlushTrace(t, c, tracer))
	for _, want := range []string{"server.mutate", "replication.fanout", "lsm.apply_batch", "wal.append"} {
		if _, ok := names[want]; !ok {
			t.Errorf("in-process trace missing %q; has %v", want, keys(names))
		}
	}
}

// TestWrappedMemberKeepsEngineSpans: a member wrapped through
// Config.MemberWrapper (the fault-injection hook) must still carry the
// operation's span into the engine. Every member is wrapped by a
// pass-through gatedMember and the write acks at full fan-out, so each
// replicate.N must own a region.apply → lsm.apply_batch → wal.append chain.
func TestWrappedMemberKeepsEngineSpans(t *testing.T) {
	tracer := telemetry.NewTracer(telemetry.TracerOptions{SampleEvery: 1})
	cl, err := NewCluster(Config{
		Nodes:      3,
		QuorumAcks: 3,
		DataDir:    t.TempDir(),
		Store:      lsm.Options{WALSync: wal.SyncNever},
		Tracer:     tracer,
		MemberWrapper: func(_ string, _ int, app replication.Applier) replication.Applier {
			g := newGatedMember(app)
			g.Unblock()
			return g
		},
	})
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
	defer c.Close()
	trace := putFlushTrace(t, c, tracer)
	// child returns the span named name whose parent is the given span.
	child := func(parent uint64, name string) (telemetry.SpanRecord, bool) {
		for _, s := range trace.Spans {
			if s.ParentID == parent && s.Name == name {
				return s, true
			}
		}
		return telemetry.SpanRecord{}, false
	}
	fanout := spanNames(trace)["replication.fanout"]
	for n := 0; n < 3; n++ {
		at := fanout
		for _, name := range []string{fmt.Sprintf("replicate.%d", n), "region.apply", "lsm.apply_batch", "wal.append"} {
			next, ok := child(at.SpanID, name)
			if !ok {
				t.Fatalf("member %d: no %q under %q; trace has %v", n, name, at.Name, keys(spanNames(trace)))
			}
			at = next
		}
	}
}

func keys(m map[string]telemetry.SpanRecord) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
