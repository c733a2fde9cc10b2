package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestTracerSampling(t *testing.T) {
	tr := NewTracer(TracerOptions{SampleEvery: 3})
	sampled := 0
	for i := 0; i < 9; i++ {
		op, sp := tr.StartTrace("client.put")
		if op != nil {
			sampled++
			sp.End()
		} else if sp.Traced() {
			t.Fatal("unsampled op returned a live span")
		}
	}
	if sampled != 3 {
		t.Fatalf("sampled %d of 9 at 1-in-3", sampled)
	}
	if got := len(tr.Traces()); got != 3 {
		t.Fatalf("completed traces = %d, want 3", got)
	}

	var nilTracer *Tracer
	if op, sp := nilTracer.StartTrace("x"); op != nil || sp.Traced() {
		t.Fatal("nil tracer sampled")
	}
}

// TestRemoteStitching drives the full client/server span protocol in
// miniature: the client opens a trace, ships its RPC span's context to a
// "server" which joins the trace, records its own spans, and returns them
// for stitching. The completed trace must be one tree under one trace id.
func TestRemoteStitching(t *testing.T) {
	tr := NewTracer(TracerOptions{SampleEvery: 1})
	op, root := tr.StartTrace("client.put")
	if op == nil {
		t.Fatal("not sampled at 1-in-1")
	}
	rpcSp := root.Child("rpc.mutate")
	ctx := rpcSp.Context()
	if !ctx.Sampled || ctx.TraceID == 0 || ctx.SpanID == 0 {
		t.Fatalf("bad wire context %+v", ctx)
	}

	// Server side: join, work, drain.
	rop := JoinRemote(ctx)
	parent := rop.RemoteParent(ctx)
	srvSp := parent.ChildIn("server-0", "server.mutate")
	walSp := srvSp.ChildIn("node-00/iot,00001", "wal.fsync")
	walSp.End()
	srvSp.End()
	remote := rop.TakeSpans()
	if len(remote) != 2 {
		t.Fatalf("server recorded %d spans, want 2", len(remote))
	}

	// Client side: stitch and finish.
	rpcSp.AddRemoteSpans(remote)
	rpcSp.End()
	root.End()

	traces := tr.Traces()
	if len(traces) != 1 {
		t.Fatalf("got %d traces", len(traces))
	}
	spans := traces[0].Spans
	if len(spans) != 4 {
		t.Fatalf("trace has %d spans, want 4: %+v", len(spans), spans)
	}
	byName := map[string]SpanRecord{}
	for _, s := range spans {
		if s.TraceID != ctx.TraceID {
			t.Fatalf("span %q has trace id %x, want %x", s.Name, s.TraceID, ctx.TraceID)
		}
		byName[s.Name] = s
	}
	if byName["server.mutate"].ParentID != ctx.SpanID {
		t.Errorf("server.mutate parented under %x, want rpc span %x",
			byName["server.mutate"].ParentID, ctx.SpanID)
	}
	if byName["wal.fsync"].ParentID != byName["server.mutate"].SpanID {
		t.Errorf("wal.fsync parented under %x, want server.mutate %x",
			byName["wal.fsync"].ParentID, byName["server.mutate"].SpanID)
	}
	if byName["client.put"].ParentID != 0 {
		t.Errorf("root has parent %x", byName["client.put"].ParentID)
	}
	if byName["wal.fsync"].Service != "node-00/iot,00001" {
		t.Errorf("service lost in stitching: %+v", byName["wal.fsync"])
	}
	if root := traces[0].Root(); root.Name != "client.put" {
		t.Errorf("Root() = %q", root.Name)
	}
}

func TestSlowOpLogAndRetention(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(TracerOptions{
		SampleEvery:     1,
		SlowOpThreshold: 0, // every sampled op is "slow"
		Logger:          NewLogger(&buf, LevelWarn),
	})
	_, sp := tr.StartTrace("client.put")
	child := sp.Child("rpc.mutate")
	child.End()
	sp.End()

	if got := len(tr.SlowTraces()); got != 1 {
		t.Fatalf("SlowTraces = %d, want 1", got)
	}
	line := buf.String()
	if !strings.Contains(line, `"msg":"slow operation"`) || !strings.Contains(line, `"op":"client.put"`) {
		t.Fatalf("missing slow-op event: %s", line)
	}
	// The span tree ships inside the event, JSON-parseable.
	var ev struct {
		Spans []SpanRecord `json:"spans"`
	}
	if err := json.Unmarshal([]byte(strings.TrimSpace(line)), &ev); err != nil {
		t.Fatal(err)
	}
	if len(ev.Spans) != 2 {
		t.Fatalf("event carries %d spans, want 2", len(ev.Spans))
	}

	// Negative threshold disables the slow log entirely.
	tr2 := NewTracer(TracerOptions{SampleEvery: 1, SlowOpThreshold: -1})
	_, sp2 := tr2.StartTrace("client.put")
	sp2.End()
	if len(tr2.SlowTraces()) != 0 {
		t.Fatal("negative threshold retained a slow trace")
	}
	if d, on := tr2.SlowOpThreshold(); on {
		t.Fatalf("slow log reported on (threshold %v)", d)
	}
}

func TestTraceRingBuffer(t *testing.T) {
	tr := NewTracer(TracerOptions{SampleEvery: 1, BufferSize: 4})
	for i := 0; i < 10; i++ {
		_, sp := tr.StartTrace("op")
		sp.End()
	}
	if got := len(tr.Traces()); got != 4 {
		t.Fatalf("ring holds %d, want 4", got)
	}
}

func TestInertSpansNeverTouchClock(t *testing.T) {
	var sp TSpan
	if sp.Traced() {
		t.Fatal("zero span traced")
	}
	child := sp.Child("x").ChildIn("svc", "y")
	child.End()
	sp.AddRemoteSpans([]SpanRecord{{SpanID: 1}})
	sp.End()
	if sp.Context().Sampled {
		t.Fatal("zero span sampled")
	}
}

// TestChromeTraceGolden pins the exact trace-event JSON for a fixed span
// set: tids assigned in first-seen service order, microsecond timestamps
// relative to the earliest span, metadata events naming each service.
func TestChromeTraceGolden(t *testing.T) {
	traces := []*Trace{
		{Spans: []SpanRecord{
			{TraceID: 1, SpanID: 2, ParentID: 3, Name: "wal.fsync", Service: "node-00/iot,00001", StartNs: 1500, DurNs: 500},
			{TraceID: 1, SpanID: 3, ParentID: 0, Name: "client.put", Service: "client", StartNs: 1000, DurNs: 2000},
		}},
		{Spans: []SpanRecord{
			{TraceID: 9, SpanID: 4, ParentID: 0, Name: "client.get", Service: "client", StartNs: 4000, DurNs: 1000},
		}},
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, traces); err != nil {
		t.Fatal(err)
	}
	want := `{"traceEvents":[` +
		`{"name":"thread_name","ph":"M","pid":1,"tid":0,"args":{"name":"node-00/iot,00001"}},` +
		`{"name":"wal.fsync","ph":"X","pid":1,"tid":0,"ts":0.5,"dur":0.5,"args":{"parent":3,"span_id":2,"trace_id":1}},` +
		`{"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"client"}},` +
		`{"name":"client.put","ph":"X","pid":1,"tid":1,"dur":2,"args":{"parent":0,"span_id":3,"trace_id":1}},` +
		`{"name":"client.get","ph":"X","pid":1,"tid":1,"ts":3,"dur":1,"args":{"parent":0,"span_id":4,"trace_id":9}}` +
		`]}` + "\n"
	if got := buf.String(); got != want {
		t.Fatalf("golden mismatch:\n got: %s\nwant: %s", got, want)
	}

	// Empty input still yields a valid document with an array, not null.
	buf.Reset()
	if err := WriteChromeTrace(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(buf.String()); got != `{"traceEvents":[]}` {
		t.Fatalf("empty export = %s", got)
	}
}

func TestTraceHandlerServesJSON(t *testing.T) {
	tr := NewTracer(TracerOptions{SampleEvery: 1})
	_, sp := tr.StartTrace("client.put")
	sp.Child("rpc.mutate").End()
	sp.End()

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tr.Traces()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	// One metadata event for the "client" service plus two X events.
	if len(doc.TraceEvents) != 3 {
		t.Fatalf("got %d events, want 3", len(doc.TraceEvents))
	}
}
