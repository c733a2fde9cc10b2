package hbase

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

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
//	payload fields, each length-prefixed with a uvarint
//
// Requests carry an optional trace header (trace id + parent span id, when
// the operation is sampled), then the region name followed by op-specific
// fields; responses carry a status byte (statusOK/statusErr), an optional
// span block (the server-side spans of a sampled operation, shipped back
// for client-side stitching), and either results or an error string. The
// protocol is deliberately minimal: one outstanding request per connection,
// matching the one-client-per-worker-thread model.

// opcodes. Scans are a session of three ops (open, a next per chunk,
// close), the wire form of the server's scanner sessions; the retired
// one-shot scan op (formerly opcode 3) shipped a whole region scan as a
// single frame.
const (
	opMutate    byte = 1
	opGet       byte = 2
	opScanOpen  byte = 3
	opScanNext  byte = 4
	opScanClose byte = 5
	// opAggregate is the aggregation-pushdown RPC: the request carries the
	// key range, time range, window width and function mask; the response
	// carries per-(series, window) partial aggregates instead of rows.
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

// frameWriter accumulates one frame's payload.
type frameWriter struct {
	buf []byte
}

func (f *frameWriter) reset(op byte) {
	f.buf = append(f.buf[:0], 0, 0, 0, 0, op, 0)
}

// flagsIdx locates the flags byte inside the writer's buffer (after the
// 4-byte length prefix and the op/status byte).
const flagsIdx = 5

// trace writes the request trace header for a sampled operation. Must be
// called immediately after reset, before any other field. A no-op for
// untraced spans, so every request path can call it unconditionally.
func (f *frameWriter) trace(sp telemetry.TSpan) {
	ctx := sp.Context()
	if !ctx.Sampled {
		return
	}
	f.buf[flagsIdx] |= flagTrace
	f.uvarint(ctx.TraceID)
	f.uvarint(ctx.SpanID)
}

// headerLen is where a frame's fields start: after the length prefix, the
// op/status byte and the flags byte.
const headerLen = flagsIdx + 1

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

// countWidth is the fixed width of a chunk's row count on the wire: a
// uvarint padded with continuation bytes, which uvarint readers decode as
// usual, so it can be filled in behind rows already written. The constant
// under it does not compile if scanChunkBytes/2 rows outgrow the width.
const countWidth = 3

const _ = uint(1<<(7*countWidth) - 1 - scanChunkBytes/2)

// beginChunk reserves the head of a scan chunk — the more flag and the row
// count, known only after the rows that follow — and returns its position.
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

func (f *frameWriter) bytes(b []byte) {
	f.buf = binary.AppendUvarint(f.buf, uint64(len(b)))
	f.buf = append(f.buf, b...)
}

func (f *frameWriter) str(s string) {
	f.buf = binary.AppendUvarint(f.buf, uint64(len(s)))
	f.buf = append(f.buf, s...)
}

func (f *frameWriter) uvarint(v uint64) {
	f.buf = binary.AppendUvarint(f.buf, v)
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

// frameReader parses one frame's payload.
type frameReader struct {
	op    byte
	flags byte
	buf   []byte
	off   int
}

// readFrame reads a whole frame from r.
func (f *frameReader) readFrame(r io.Reader) error {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return err // io.EOF signals clean connection close
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n < 2 || n > maxFrame {
		return fmt.Errorf("%w: frame length %d", ErrBadFrame, n)
	}
	if cap(f.buf) < int(n) {
		f.buf = make([]byte, n)
	}
	f.buf = f.buf[:n]
	if _, err := io.ReadFull(r, f.buf); err != nil {
		return fmt.Errorf("%w: truncated frame: %v", ErrBadFrame, err)
	}
	f.op = f.buf[0]
	f.flags = f.buf[1]
	f.off = 2
	return nil
}

// traceContext parses the request trace header, if present. Must be called
// before any other field read.
func (f *frameReader) traceContext() (telemetry.TraceContext, error) {
	if f.flags&flagTrace == 0 {
		return telemetry.TraceContext{}, nil
	}
	tid, err := f.uvarint()
	if err != nil {
		return telemetry.TraceContext{}, err
	}
	sid, err := f.uvarint()
	if err != nil {
		return telemetry.TraceContext{}, err
	}
	return telemetry.TraceContext{TraceID: tid, SpanID: sid, Sampled: true}, nil
}

// spans parses the response span block, if present. Must be called before
// any result field read.
func (f *frameReader) spans() ([]telemetry.SpanRecord, error) {
	if f.flags&flagSpans == 0 {
		return nil, nil
	}
	n, err := f.uvarint()
	if err != nil {
		return nil, err
	}
	capHint := n
	if capHint > 1024 {
		capHint = 1024 // bound the pre-allocation; a bogus count fails below
	}
	out := make([]telemetry.SpanRecord, 0, capHint)
	for i := uint64(0); i < n; i++ {
		var s telemetry.SpanRecord
		if s.SpanID, err = f.uvarint(); err != nil {
			return nil, err
		}
		if s.ParentID, err = f.uvarint(); err != nil {
			return nil, err
		}
		start, err := f.uvarint()
		if err != nil {
			return nil, err
		}
		dur, err := f.uvarint()
		if err != nil {
			return nil, err
		}
		s.StartNs, s.DurNs = int64(start), int64(dur)
		if s.Name, err = f.str(); err != nil {
			return nil, err
		}
		if s.Service, err = f.str(); err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

func (f *frameReader) bytes() ([]byte, error) {
	n, sz := binary.Uvarint(f.buf[f.off:])
	if sz <= 0 || uint64(len(f.buf)-f.off-sz) < n {
		return nil, fmt.Errorf("%w: bad field length", ErrBadFrame)
	}
	f.off += sz
	out := f.buf[f.off : f.off+int(n)]
	f.off += int(n)
	return out, nil
}

func (f *frameReader) str() (string, error) {
	b, err := f.bytes()
	return string(b), err
}

// count reads an element count and refuses one the rest of the frame could
// not hold at min bytes an element, so no number off the wire sizes an
// allocation.
func (f *frameReader) count(min int) (uint64, error) {
	n, err := f.uvarint()
	if err == nil && n > uint64((len(f.buf)-f.off)/min) {
		err = fmt.Errorf("%w: %d elements in %d bytes", ErrBadFrame, n, len(f.buf)-f.off)
	}
	return n, err
}

func (f *frameReader) uvarint() (uint64, error) {
	v, sz := binary.Uvarint(f.buf[f.off:])
	if sz <= 0 {
		return 0, fmt.Errorf("%w: bad uvarint", ErrBadFrame)
	}
	f.off += sz
	return v, nil
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

func (f *frameReader) optBytes() ([]byte, error) {
	if f.off >= len(f.buf) {
		return nil, fmt.Errorf("%w: missing optional marker", ErrBadFrame)
	}
	marker := f.buf[f.off]
	f.off++
	if marker == markerNil {
		return nil, nil
	}
	return f.bytes()
}
