package hbase

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"tpcxiot/internal/lsm"
	"tpcxiot/internal/telemetry"
)

// The cluster's clients can reach region servers two ways: direct
// in-process calls (the default) or a loopback TCP wire protocol that
// models the benchmark's client-to-region-server network path. Both routes
// execute the same handler-gated server methods.
//
// Wire format: every message is a frame
//
//	uint32  payload length (little endian)
//	byte    opcode (request) or status (response)
//	byte    flags (trace header / span block present)
//	fields  uvarints, and byte strings behind their uvarint length
//
// A request starts with the trace header of a sampled operation and the
// region name. A response starts with the span block of a sampled operation
// (its server-side spans, for client-side stitching), unless it is an error
// string (statusErr) or a retry-after hint (statusOverloaded). The op's
// fields follow; each message's encoder (a frameWriter method) and decoder
// (the frameReader method of the same name) sit side by side below:
//
//	op           request fields                   response fields
//	opMutate     count, {0, key, value}           -
//	opScanOpen   lo?, hi?, limit                  scanner id
//	opScanNext   scanner id, chunk                more, count, {key, value}
//	opScanClose  scanner id                       -
//	opAggregate  lo?, hi?, minTS, maxTS,          rows folded, count, {series,
//	             windowMS, funcs                  start, count, min, max, sum}
//
// where lo? and hi? are byte strings behind a nil/present marker byte. The
// protocol is deliberately minimal: one outstanding request per connection,
// matching the one-client-per-worker-thread model.

// opcodes. Scans are a session of three ops (open, a next per chunk,
// close), the wire form of the server's scanner sessions; opAggregate is
// the aggregation pushdown, answered with per-(series, window) partials.
// Opcode 2, once a point read, is retired and not reused: a frame carrying
// it is refused as an unknown opcode.
const (
	opMutate    byte = 1
	opScanOpen  byte = 3
	opScanNext  byte = 4
	opScanClose byte = 5
	opAggregate byte = 6
)

// response statuses. statusOverloaded is a load-shed: the typed retryable
// refusal (an *OverloadedError), carrying its retry-after hint in
// microseconds, so remote clients reconstruct the same error value the
// in-process transport returns.
const (
	statusOK         byte = 0
	statusErr        byte = 1
	statusOverloaded byte = 2
)

// frame flags. Requests use flagTrace (a trace header follows the flags
// byte); responses use flagSpans (a span block follows the status).
const (
	flagTrace byte = 1 << 0
	flagSpans byte = 1 << 1
)

// maxFrame bounds a single message; the largest the protocol itself builds
// is a client's buffered mutate batch (scan chunks end at scanChunkBytes).
const maxFrame = 256 << 20

// ErrBadFrame reports a malformed wire message.
var ErrBadFrame = errors.New("hbase: malformed wire frame")

// frameWriter accumulates one frame: the length prefix, reserved until
// flush, then the op/status and flags bytes and the fields.
type frameWriter struct {
	buf []byte
}

// flagsIdx locates the flags byte inside the writer's buffer (after the
// 4-byte length prefix and the op/status byte); headerLen is where a
// frame's fields start.
const (
	flagsIdx  = 5
	headerLen = flagsIdx + 1
)

func (f *frameWriter) reset(op byte) {
	f.buf = append(f.buf[:0], 0, 0, 0, 0, op, 0)
}

func (f *frameWriter) uvarint(v uint64) {
	f.buf = binary.AppendUvarint(f.buf, v)
}

func (f *frameWriter) bytes(b []byte) {
	f.buf = binary.AppendUvarint(f.buf, uint64(len(b)))
	f.buf = append(f.buf, b...)
}

func (f *frameWriter) str(s string) {
	f.buf = binary.AppendUvarint(f.buf, uint64(len(s)))
	f.buf = append(f.buf, s...)
}

// nilMarker distinguishes nil scan bounds from empty ones on the wire.
const (
	markerNil   byte = 0
	markerBytes byte = 1
)

func (f *frameWriter) optBytes(b []byte) {
	if b == nil {
		f.buf = append(f.buf, markerNil)
		return
	}
	f.buf = append(f.buf, markerBytes)
	f.bytes(b)
}

// flush writes the frame to w in one Write: the buffer starts with its own
// length prefix. A frame no reader would accept is refused here, before its
// length could wrap the prefix.
func (f *frameWriter) flush(w io.Writer) error {
	n := len(f.buf) - 4
	if n > maxFrame {
		return fmt.Errorf("%w: frame of %d bytes exceeds %d", ErrBadFrame, n, maxFrame)
	}
	binary.LittleEndian.PutUint32(f.buf[:4], uint32(n))
	_, err := w.Write(f.buf)
	return err
}

// frameReader decodes one frame's payload. Decoding is sticky: the first
// read that fails records err, and every read after it returns a zero value
// (0, nil, "", a count of 0 that ends decode loops), so a message decodes
// field after field and its reader checks err once, at the end. The bounds
// are those of a reader that stops at the first error: no field runs past
// the frame and no count exceeds what the bytes left can hold.
type frameReader struct {
	op    byte
	flags byte
	buf   []byte
	off   int
	err   error
}

// readFrame reads a whole frame from r and starts decoding it at the first
// field. A failed read is err: io.EOF signals a clean connection close.
func (f *frameReader) readFrame(r io.Reader) {
	f.err = nil
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		f.fail(err)
		return
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n < 2 || n > maxFrame {
		f.malformed("frame length %d", n)
		return
	}
	if cap(f.buf) < int(n) {
		f.buf = make([]byte, n)
	}
	f.buf = f.buf[:n]
	if _, err := io.ReadFull(r, f.buf); err != nil {
		f.malformed("truncated frame: %v", err)
		return
	}
	f.op, f.flags, f.off = f.buf[0], f.buf[1], 2
}

// fail records err, unless an earlier failure is recorded, and moves to the
// end of the frame so that every later read fails and returns a zero value.
func (f *frameReader) fail(err error) {
	if f.err == nil {
		f.err = err
	}
	f.off = len(f.buf)
}

// malformed fails the frame with an ErrBadFrame. After a failure every read
// lands here, and then there is nothing left to record.
func (f *frameReader) malformed(format string, args ...any) {
	if f.err == nil {
		f.fail(fmt.Errorf("%w: "+format, append([]any{ErrBadFrame}, args...)...))
	}
}

func (f *frameReader) uvarint() uint64 {
	v, n := binary.Uvarint(f.buf[f.off:])
	if n <= 0 {
		f.malformed("bad uvarint")
		return 0
	}
	f.off += n
	return v
}

// bytes returns a field aliasing the frame buffer.
func (f *frameReader) bytes() []byte {
	n, sz := binary.Uvarint(f.buf[f.off:])
	if sz <= 0 || uint64(len(f.buf)-f.off-sz) < n {
		f.malformed("bad field length")
		return nil
	}
	f.off += sz
	out := f.buf[f.off : f.off+int(n)]
	f.off += int(n)
	return out
}

func (f *frameReader) str() string {
	return string(f.bytes())
}

func (f *frameReader) optBytes() []byte {
	if f.off >= len(f.buf) {
		f.malformed("missing optional marker")
		return nil
	}
	f.off++
	if f.buf[f.off-1] == markerNil {
		return nil
	}
	return f.bytes()
}

// count reads an element count and refuses one the rest of the frame could
// not hold at min bytes an element, so no number off the wire sizes an
// allocation beyond the bytes that follow it. Every count the protocol
// carries is read here.
func (f *frameReader) count(min int) int {
	n := f.uvarint()
	if left := len(f.buf) - f.off; n > uint64(left/min) {
		f.malformed("%d elements in %d bytes", n, left)
		return 0
	}
	return int(n)
}

// wireCount turns a row count off the wire into an int. One too large for
// int is, for any range a region can hold, the same as the largest int.
func wireCount(v uint64) int {
	return int(min(v, math.MaxInt))
}

// request starts a request frame: the op, the trace header of a sampled
// operation, and the region name. The op's fields follow.
func (f *frameWriter) request(op byte, sp telemetry.TSpan, region string) {
	f.reset(op)
	if ctx := sp.Context(); ctx.Sampled {
		f.buf[flagsIdx] |= flagTrace
		f.uvarint(ctx.TraceID)
		f.uvarint(ctx.SpanID)
	}
	f.str(region)
}

func (f *frameReader) request() (ctx telemetry.TraceContext, region string) {
	if f.flags&flagTrace != 0 {
		ctx = telemetry.TraceContext{TraceID: f.uvarint(), SpanID: f.uvarint(), Sampled: true}
	}
	return ctx, f.str()
}

// mutations is an opMutate request's batch. Each mutation leads with a flag
// byte that once marked a delete; it is always 0, and a frame that sets it
// is malformed.
func (f *frameWriter) mutations(batch []Mutation) {
	f.uvarint(uint64(len(batch)))
	for _, m := range batch {
		f.buf = append(f.buf, 0)
		f.bytes(m.Key)
		f.bytes(m.Value)
	}
}

// mutations copies keys and values out of the frame, which the connection
// reuses for its next request.
func (f *frameReader) mutations() []Mutation {
	batch := make([]Mutation, f.count(3)) // a flag and two lengths at least
	for i := range batch {
		m := &batch[i]
		if f.uvarint() != 0 {
			f.malformed("mutation %d sets the retired delete flag", i)
		}
		m.Key = append([]byte(nil), f.bytes()...)
		m.Value = append([]byte(nil), f.bytes()...)
	}
	return batch
}

// scanOpen is an opScanOpen request: the bounds and the row limit (0 for
// none).
func (f *frameWriter) scanOpen(lo, hi []byte, limit int) {
	f.optBytes(lo)
	f.optBytes(hi)
	f.uvarint(uint64(max(limit, 0)))
}

func (f *frameReader) scanOpen() (lo, hi []byte, limit int) {
	return f.optBytes(), f.optBytes(), wireCount(f.uvarint())
}

// scanNext is an opScanNext request: the scanner and the rows wanted.
func (f *frameWriter) scanNext(id uint64, chunk int) {
	f.uvarint(id)
	f.uvarint(uint64(max(chunk, 0)))
}

func (f *frameReader) scanNext() (id uint64, chunk int) {
	return f.uvarint(), wireCount(f.uvarint())
}

// aggregate is an opAggregate request.
func (f *frameWriter) aggregate(lo, hi []byte, minTS, maxTS, windowMS int64, funcs lsm.AggFuncs) {
	f.optBytes(lo)
	f.optBytes(hi)
	f.uvarint(uint64(minTS))
	f.uvarint(uint64(maxTS))
	f.uvarint(uint64(windowMS))
	f.uvarint(uint64(funcs))
}

func (f *frameReader) aggregate() (lo, hi []byte, minTS, maxTS, windowMS int64, funcs lsm.AggFuncs) {
	return f.optBytes(), f.optBytes(), int64(f.uvarint()), int64(f.uvarint()), int64(f.uvarint()),
		lsm.AggFuncs(f.uvarint())
}

// failure starts the frame over as the response to a request that failed:
// a load-shed's retry-after hint, or the error's text.
func (f *frameWriter) failure(err error) {
	var over *OverloadedError
	if errors.As(err, &over) {
		f.reset(statusOverloaded)
		f.uvarint(uint64(over.RetryAfter.Microseconds()))
		return
	}
	f.reset(statusErr)
	f.str(err.Error())
}

// status reads a response's status and, under statusOK, its span block,
// which it stitches under sp. A server error or a load-shed becomes err —
// the value the in-process transport would have returned — so the results
// behind it read as zero values like those of a malformed frame.
func (f *frameReader) status(sp telemetry.TSpan) {
	if f.err != nil {
		return
	}
	switch f.op {
	case statusOK:
		if spans := f.spans(); f.err == nil {
			sp.AddRemoteSpans(spans)
		}
	case statusErr:
		f.fail(errors.New(f.str()))
	case statusOverloaded:
		f.fail(&OverloadedError{RetryAfter: time.Duration(f.uvarint()) * time.Microsecond})
	default:
		f.malformed("status %d", f.op)
	}
}

// spans puts the response span block — the server-side spans of a sampled
// operation, shipped back for client-side stitching — right after the
// flags, in front of the result fields. The spans are complete only once
// the handler has returned, with the results (a chunk's rows) already in the
// frame, so the block is appended and the results moved behind it; only
// sampled requests pay that move. A no-op for an empty slice. Trace ids are
// omitted — the client rewrites them on stitch.
func (f *frameWriter) spans(spans []telemetry.SpanRecord) {
	if len(spans) == 0 {
		return
	}
	f.buf[flagsIdx] |= flagSpans
	results := len(f.buf)
	f.uvarint(uint64(len(spans)))
	for i := range spans {
		s := &spans[i]
		f.uvarint(s.SpanID)
		f.uvarint(s.ParentID)
		f.uvarint(uint64(s.StartNs))
		f.uvarint(uint64(s.DurNs))
		f.str(s.Name)
		f.str(s.Service)
	}
	block := append([]byte(nil), f.buf[results:]...)
	copy(f.buf[headerLen+len(block):], f.buf[headerLen:results])
	copy(f.buf[headerLen:], block)
}

func (f *frameReader) spans() []telemetry.SpanRecord {
	if f.flags&flagSpans == 0 {
		return nil
	}
	spans := make([]telemetry.SpanRecord, f.count(6)) // four uvarints, two lengths
	for i := range spans {
		s := &spans[i]
		s.SpanID = f.uvarint()
		s.ParentID = f.uvarint()
		s.StartNs = int64(f.uvarint())
		s.DurNs = int64(f.uvarint())
		s.Name = f.str()
		s.Service = f.str()
	}
	return spans
}

// countWidth is the fixed width of a chunk's row count on the wire: a
// uvarint padded with continuation bytes, which uvarint readers decode as
// usual, so it can be filled in behind rows already written. The constant
// under it does not compile if scanChunkBytes/2 rows outgrow the width.
const countWidth = 3

const _ = uint(1<<(7*countWidth) - 1 - scanChunkBytes/2)

// beginChunk reserves the head of an opScanNext response — the more flag
// and the row count, known only after the rows that follow — and returns
// its position.
func (f *frameWriter) beginChunk() int {
	at := len(f.buf)
	f.buf = append(f.buf, make([]byte, 1+countWidth)...)
	return at
}

// row appends one row of a chunk; it is the TCP dispatcher's rowSink.
func (f *frameWriter) row(key, value []byte) {
	f.bytes(key)
	f.bytes(value)
}

// endChunk fills in the head beginChunk reserved.
func (f *frameWriter) endChunk(at, n int, more bool) {
	if more {
		f.buf[at] = 1
	}
	for i := 1; i < countWidth; i++ {
		f.buf[at+i] = byte(n) | 0x80
		n >>= 7
	}
	f.buf[at+countWidth] = byte(n)
}

// chunk decodes an opScanNext response. The rows alias the frame buffer,
// whose ownership passes to them instead of every key and value being
// copied again; the caller must not reuse the reader's buffer.
func (f *frameReader) chunk() (rows []Row, more bool) {
	more = f.uvarint() == 1
	rows = make([]Row, f.count(2)) // two lengths at least
	for i := range rows {
		rows[i] = Row{Key: f.bytes(), Value: f.bytes()}
	}
	return rows, more
}

// aggResult is an opAggregate response.
func (f *frameWriter) aggResult(res lsm.AggResult) {
	f.uvarint(uint64(res.RowsFolded))
	f.uvarint(uint64(len(res.Windows)))
	for i := range res.Windows {
		w := &res.Windows[i]
		f.bytes(w.Series)
		f.uvarint(uint64(w.WindowStart))
		f.uvarint(uint64(w.Count))
		f.uvarint(math.Float64bits(w.Min))
		f.uvarint(math.Float64bits(w.Max))
		f.uvarint(math.Float64bits(w.Sum))
	}
}

func (f *frameReader) aggResult() lsm.AggResult {
	res := lsm.AggResult{RowsFolded: int64(f.uvarint())}
	res.Windows = make([]lsm.WindowAgg, f.count(6)) // a length and five uvarints at least
	for i := range res.Windows {
		w := &res.Windows[i]
		w.Series = append([]byte(nil), f.bytes()...)
		w.WindowStart = int64(f.uvarint())
		w.Count = int64(f.uvarint())
		w.Min = math.Float64frombits(f.uvarint())
		w.Max = math.Float64frombits(f.uvarint())
		w.Sum = math.Float64frombits(f.uvarint())
	}
	return res
}
