package telemetry

import (
	"sync"
	"sync/atomic"
	"time"
)

// Distributed tracing: one sampled driver-side operation produces one tree
// of spans spanning client → region server → region → lsm → wal →
// replication fan-out, with the server-side spans shipped back piggybacked
// on the RPC response frame and stitched client-side.
//
// The design splits three roles:
//
//   - Tracer owns the sampling decision, the completed-trace ring buffer,
//     and the slow-op log. One Tracer per process (per run).
//   - OpTrace collects the spans of ONE in-flight operation. The client side
//     creates it via Tracer.StartTrace; a server handling a sampled RPC
//     creates a detached one via JoinRemote, drains it with TakeSpans, and
//     the client stitches those spans back in with AddSpans.
//   - TSpan is one open span. It is a small value; Child/ChildIn open
//     sub-spans, End records the span into its OpTrace.
//
// Everything is nil-safe and inert-safe: a nil Tracer samples nothing, a
// nil OpTrace hands out inert TSpans, and an inert TSpan's methods never
// read the clock — an untraced operation pays a handful of pointer tests.

// TraceContext identifies a position in a distributed trace: the trace id,
// the span to parent new work under, and whether the operation is sampled.
// It is what crosses process and wire boundaries (the optional trace header
// on every TCP frame).
type TraceContext struct {
	TraceID uint64
	SpanID  uint64
	Sampled bool
}

// SpanRecord is one completed span of a trace.
type SpanRecord struct {
	TraceID  uint64 `json:"trace_id"`
	SpanID   uint64 `json:"span_id"`
	ParentID uint64 `json:"parent_id"` // 0 for the root span
	Name     string `json:"name"`
	Service  string `json:"service"`  // emitting component, e.g. "client", "server-2", "node-00/iot,00001"
	StartNs  int64  `json:"start_ns"` // wall clock, nanoseconds since the Unix epoch
	DurNs    int64  `json:"dur_ns"`
}

// Trace is one completed operation's span tree. Spans appear in completion
// order; the root (ParentID == 0) is last to complete and therefore last.
type Trace struct {
	Spans []SpanRecord
}

// Root returns the root span, or a zero record when the trace is malformed.
func (t *Trace) Root() SpanRecord {
	for i := len(t.Spans) - 1; i >= 0; i-- {
		if t.Spans[i].ParentID == 0 {
			return t.Spans[i]
		}
	}
	return SpanRecord{}
}

// Duration is the root span's duration.
func (t *Trace) Duration() time.Duration { return time.Duration(t.Root().DurNs) }

// TracerOptions configures a Tracer.
type TracerOptions struct {
	// SampleEvery samples one in N operations. <= 0 disables tracing
	// entirely (StartTrace never samples).
	SampleEvery int
	// SlowOpThreshold: a completed sampled trace whose root span meets or
	// exceeds it is retained in the slow-trace list and logged (span tree
	// included) through Logger. Negative disables; zero records every
	// sampled operation as slow, which is how smoke tests exercise the path.
	SlowOpThreshold time.Duration
	// SlowOpDisabled must be set to distinguish "threshold 0" from "unset"
	// — the zero TracerOptions value keeps the slow-op log off.
	SlowOpDisabled bool
	// Logger receives slow-op events; nil logs nothing.
	Logger *Logger
	// BufferSize caps the completed-trace ring buffer. Defaults to 256.
	BufferSize int
}

// Tracer makes sampling decisions and retains completed traces. Safe for
// concurrent use; a nil *Tracer never samples.
type Tracer struct {
	sampleEvery int64
	slowNs      int64
	slowOn      bool
	logger      *Logger

	seq atomic.Int64 // operation counter driving the 1-in-N decision

	mu      sync.Mutex
	ring    []*Trace // completed traces, ring buffer
	ringCap int
	next    int
	slow    []*Trace // most recent slow traces, bounded by slowCap
}

// slowCap bounds the retained slow-trace list.
const slowCap = 32

// NewTracer builds a tracer. Returns a tracer even when sampling is
// disabled so callers can hold one unconditionally.
func NewTracer(o TracerOptions) *Tracer {
	if o.BufferSize <= 0 {
		o.BufferSize = 256
	}
	t := &Tracer{
		sampleEvery: int64(o.SampleEvery),
		slowNs:      o.SlowOpThreshold.Nanoseconds(),
		slowOn:      !o.SlowOpDisabled && o.SlowOpThreshold >= 0,
		logger:      o.Logger,
		ringCap:     o.BufferSize,
	}
	if o.SlowOpThreshold < 0 {
		t.slowOn = false
	}
	return t
}

// spanIDs generates process-wide unique span and trace ids. A counter run
// through a mixing permutation keeps ids unique, non-zero and cheap without
// pulling in math/rand.
var spanIDs atomic.Uint64

func newID() uint64 {
	// splitmix64 finalizer over a strided counter; never returns 0.
	x := spanIDs.Add(0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	if x == 0 {
		x = 1
	}
	return x
}

// StartTrace makes the sampling decision for one operation. When sampled it
// returns the operation's collector and its open root span, in service
// "client"; otherwise both returns are inert (nil OpTrace, zero TSpan) and no
// clock is read.
func (t *Tracer) StartTrace(name string) (*OpTrace, TSpan) {
	if t == nil || t.sampleEvery <= 0 {
		return nil, TSpan{}
	}
	if t.seq.Add(1)%t.sampleEvery != 0 {
		return nil, TSpan{}
	}
	op := &OpTrace{tracer: t, traceID: newID()}
	root := op.StartSpan("client", name, TraceContext{TraceID: op.traceID, Sampled: true})
	op.rootID = root.id
	return op, root
}

// OpTrace collects the spans of one in-flight operation. Spans may End from
// multiple goroutines (replication fan-out); the collector is mutex-guarded.
type OpTrace struct {
	tracer  *Tracer // nil for a remote (server-side) collector
	traceID uint64
	rootID  uint64

	mu    sync.Mutex
	spans []SpanRecord
}

// JoinRemote builds a detached collector for the server side of a sampled
// remote operation: spans recorded into it are drained with TakeSpans and
// shipped back to the caller rather than finished locally. Returns nil (an
// inert collector) when ctx is unsampled.
func JoinRemote(ctx TraceContext) *OpTrace {
	if !ctx.Sampled {
		return nil
	}
	return &OpTrace{traceID: ctx.TraceID}
}

// RemoteParent returns a span handle standing in for the remote caller's
// span identified by ctx, so server-side work can be parented under it.
// The handle must not be Ended — the remote caller owns the real span.
// Safe on a nil collector (returns an inert span).
func (o *OpTrace) RemoteParent(ctx TraceContext) TSpan {
	if o == nil {
		return TSpan{}
	}
	return TSpan{op: o, id: ctx.SpanID}
}

// StartSpan opens a span in service under parent. Safe on a nil collector
// (returns an inert span).
func (o *OpTrace) StartSpan(service, name string, parent TraceContext) TSpan {
	if o == nil {
		return TSpan{}
	}
	return TSpan{
		op:      o,
		id:      newID(),
		parent:  parent.SpanID,
		name:    name,
		service: service,
		start:   time.Now(),
	}
}

// TakeSpans drains the collected spans (server side of an RPC). Safe on a
// nil collector.
func (o *OpTrace) TakeSpans() []SpanRecord {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	spans := o.spans
	o.spans = nil
	o.mu.Unlock()
	return spans
}

// AddSpans stitches remotely collected spans into this operation's trace,
// rewriting their trace id to this trace's. Safe on a nil collector.
func (o *OpTrace) AddSpans(spans []SpanRecord) {
	if o == nil || len(spans) == 0 {
		return
	}
	o.mu.Lock()
	for _, s := range spans {
		s.TraceID = o.traceID
		o.spans = append(o.spans, s)
	}
	o.mu.Unlock()
}

// finishRoot completes the operation: the collected spans become a Trace in
// the tracer's ring buffer, and slow operations are retained and logged.
func (o *OpTrace) finishRoot(root SpanRecord) {
	o.mu.Lock()
	o.spans = append(o.spans, root)
	spans := o.spans
	o.spans = nil
	o.mu.Unlock()

	t := o.tracer
	if t == nil {
		return // remote collector: the client side owns completion
	}
	tr := &Trace{Spans: spans}
	slow := t.slowOn && root.DurNs >= t.slowNs

	t.mu.Lock()
	if len(t.ring) < t.ringCap {
		t.ring = append(t.ring, tr)
	} else {
		t.ring[t.next] = tr
		t.next = (t.next + 1) % t.ringCap
	}
	if slow {
		if len(t.slow) == slowCap {
			copy(t.slow, t.slow[1:])
			t.slow = t.slow[:slowCap-1]
		}
		t.slow = append(t.slow, tr)
	}
	t.mu.Unlock()

	if slow {
		t.logger.Warn("slow operation",
			F("op", root.Name),
			F("trace_id", root.TraceID),
			F("duration_ms", float64(root.DurNs)/1e6),
			F("threshold_ms", float64(t.slowNs)/1e6),
			F("spans", spans),
		)
	}
}

// Traces snapshots the completed-trace ring buffer, oldest first.
func (t *Tracer) Traces() []*Trace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*Trace, 0, len(t.ring))
	out = append(out, t.ring[t.next:]...)
	out = append(out, t.ring[:t.next]...)
	return out
}

// SlowTraces returns the retained slow traces, oldest first.
func (t *Tracer) SlowTraces() []*Trace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*Trace(nil), t.slow...)
}

// SlowOpThreshold reports the active slow-op threshold and whether the slow
// log is enabled.
func (t *Tracer) SlowOpThreshold() (time.Duration, bool) {
	if t == nil {
		return 0, false
	}
	return time.Duration(t.slowNs), t.slowOn
}

// TSpan is one open span: a value handle that ends exactly once. The zero
// TSpan is inert — every method is a cheap no-op that never reads the clock.
type TSpan struct {
	op      *OpTrace
	id      uint64
	parent  uint64
	name    string
	service string
	start   time.Time
}

// Traced reports whether the span is live. Hot paths use it to skip
// building span names for untraced operations.
func (s TSpan) Traced() bool { return s.op != nil }

// Context returns the span's position for propagation (to children, or
// across the wire). The zero TSpan returns an unsampled context.
func (s TSpan) Context() TraceContext {
	if s.op == nil {
		return TraceContext{}
	}
	return TraceContext{TraceID: s.op.traceID, SpanID: s.id, Sampled: true}
}

// Child opens a sub-span in the same service. Inert on an inert span.
func (s TSpan) Child(name string) TSpan {
	return s.ChildIn(s.service, name)
}

// ChildIn opens a sub-span in another service (a different component of the
// same process, e.g. a region applying a replicated batch). Inert on an
// inert span.
func (s TSpan) ChildIn(service, name string) TSpan {
	if s.op == nil {
		return TSpan{}
	}
	return s.op.StartSpan(service, name, s.Context())
}

// AddRemoteSpans stitches spans shipped back from a remote service into
// this span's trace. No-op on an inert span.
func (s TSpan) AddRemoteSpans(spans []SpanRecord) {
	s.op.AddSpans(spans)
}

// End completes the span, recording it into the operation's collector. The
// root span's End completes the whole operation. No-op on an inert span;
// must be called at most once.
func (s TSpan) End() {
	if s.op == nil {
		return
	}
	rec := SpanRecord{
		TraceID:  s.op.traceID,
		SpanID:   s.id,
		ParentID: s.parent,
		Name:     s.name,
		Service:  s.service,
		StartNs:  s.start.UnixNano(),
		DurNs:    time.Since(s.start).Nanoseconds(),
	}
	if s.parent == 0 && s.id == s.op.rootID {
		s.op.finishRoot(rec)
		return
	}
	s.op.mu.Lock()
	s.op.spans = append(s.op.spans, rec)
	s.op.mu.Unlock()
}
