package hbase

import (
	"bufio"
	"errors"
	"fmt"
	"math"
	"net"
	"time"

	"tpcxiot/internal/lsm"
	"tpcxiot/internal/telemetry"
)

// transport is how a client reaches region servers: direct in-process calls
// or the TCP wire protocol. Scans are sessions: openScanner pins a
// server-side snapshot scanner, scanNext streams one chunk (more=false
// means the server already closed the session), closeScanner abandons one
// early. Every call carries the client-side span to parent server work
// under — inert for unsampled operations; the TCP transport propagates it
// as the frame trace header and stitches the returned server spans back in.
type transport interface {
	mutate(tr *tableRegion, batch []Mutation, sp telemetry.TSpan) error
	get(tr *tableRegion, key []byte, sp telemetry.TSpan) ([]byte, bool, error)
	openScanner(tr *tableRegion, lo, hi []byte, limit int, sp telemetry.TSpan) (uint64, error)
	scanNext(tr *tableRegion, id uint64, chunk int, sp telemetry.TSpan) ([]Row, bool, error)
	closeScanner(tr *tableRegion, id uint64, sp telemetry.TSpan) error
	aggregate(tr *tableRegion, lo, hi []byte, minTS, maxTS, windowMS int64, funcs lsm.AggFuncs, sp telemetry.TSpan) (lsm.AggResult, error)
	close() error
}

// inprocTransport calls the server methods directly (still handler-gated).
// The span flows straight through — server spans land in the same trace
// with no wire crossing.
type inprocTransport struct{}

func (inprocTransport) mutate(tr *tableRegion, batch []Mutation, sp telemetry.TSpan) error {
	return tr.primary.mutate(tr.group, batch, sp)
}

func (inprocTransport) get(tr *tableRegion, key []byte, sp telemetry.TSpan) ([]byte, bool, error) {
	return tr.primary.get(tr.replicas[0], key, sp)
}

func (inprocTransport) openScanner(tr *tableRegion, lo, hi []byte, limit int, sp telemetry.TSpan) (uint64, error) {
	return tr.primary.openScanner(tr.replicas[0], lo, hi, limit, sp)
}

// scanNext is the in-process rowSink: it copies the chunk's rows into one
// arena and returns owned Rows aliasing it. Rows of one scan are near enough
// one size (a kit row is 1 KiB) that the first sizes the arena for the whole
// chunk; append covers the rest.
func (inprocTransport) scanNext(tr *tableRegion, id uint64, chunk int, sp telemetry.TSpan) ([]Row, bool, error) {
	var arena []byte
	var ends []int // arena offset past each key and each value
	_, more, err := tr.primary.next(id, chunk, func(key, value []byte) {
		if arena == nil {
			n := min(max(chunk, 1), DefaultScanChunk)
			arena, ends = make([]byte, 0, n*(len(key)+len(value))), make([]int, 0, 2*n)
		}
		arena = append(append(arena, key...), value...)
		ends = append(ends, len(arena)-len(value), len(arena))
	}, sp)
	rows := make([]Row, len(ends)/2)
	off := 0
	for i := range rows {
		k, v := ends[2*i], ends[2*i+1]
		rows[i] = Row{Key: arena[off:k:k], Value: arena[k:v:v]}
		off = v
	}
	return rows, more, err
}

func (inprocTransport) closeScanner(tr *tableRegion, id uint64, sp telemetry.TSpan) error {
	return tr.primary.closeScanner(id)
}

func (inprocTransport) aggregate(tr *tableRegion, lo, hi []byte, minTS, maxTS, windowMS int64, funcs lsm.AggFuncs, sp telemetry.TSpan) (lsm.AggResult, error) {
	return tr.primary.aggregate(tr.replicas[0], lo, hi, minTS, maxTS, windowMS, funcs, sp)
}

func (inprocTransport) close() error { return nil }

// tcpTransport speaks the wire protocol, one lazily dialled connection per
// region server. Like a Client, a tcpTransport serves a single worker
// thread, so no locking is needed.
type tcpTransport struct {
	addrs map[*RegionServer]string
	conns map[*RegionServer]*tcpConn
}

type tcpConn struct {
	c net.Conn
	r *bufio.Reader
}

// connReadBuf sizes the reader in front of a connection, at both ends: a
// small message (an ack, a point read, an aggregate) arrives header and all
// in one read(2), and bufio reads a payload larger than its buffer straight
// into the frame buffer instead of copying it through.
const connReadBuf = 4 << 10

func newTCPTransport(cl *Cluster) (*tcpTransport, error) {
	cl.mu.RLock()
	defer cl.mu.RUnlock()
	if cl.tcp == nil {
		return nil, ErrNoTCP
	}
	t := &tcpTransport{
		addrs: make(map[*RegionServer]string, len(cl.servers)),
		conns: make(map[*RegionServer]*tcpConn),
	}
	for i, srv := range cl.servers {
		t.addrs[srv] = cl.tcp.addrs[i]
	}
	return t, nil
}

func (t *tcpTransport) conn(srv *RegionServer) (*tcpConn, error) {
	if c, ok := t.conns[srv]; ok {
		return c, nil
	}
	addr, ok := t.addrs[srv]
	if !ok {
		return nil, fmt.Errorf("hbase: no address for server %d", srv.ID())
	}
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("hbase: dial %s: %w", addr, err)
	}
	c := &tcpConn{c: nc, r: bufio.NewReaderSize(nc, connReadBuf)}
	t.conns[srv] = c
	return c, nil
}

// call sends the request frame and reads the response into resp. On
// transport errors the connection is discarded so the next call redials.
// For sampled operations the server's span block is parsed off the response
// and stitched under sp's trace before any result field is read.
func (t *tcpTransport) call(srv *RegionServer, req *frameWriter, resp *frameReader, sp telemetry.TSpan) error {
	c, err := t.conn(srv)
	if err != nil {
		return err
	}
	fail := func(err error) error {
		c.c.Close()
		delete(t.conns, srv)
		return err
	}
	if err := req.flush(c.c); err != nil {
		return fail(err)
	}
	if err := resp.readFrame(c.r); err != nil {
		return fail(err)
	}
	if resp.op == statusErr {
		msg, err := resp.str()
		if err != nil {
			return fail(err)
		}
		return errors.New(msg) // server-side error; connection stays usable
	}
	if resp.op == statusOverloaded {
		us, err := resp.uvarint()
		if err != nil {
			return fail(err)
		}
		// A shed is a healthy refusal: reconstruct the typed retryable
		// error; the connection stays usable for the retry.
		return &OverloadedError{RetryAfter: time.Duration(us) * time.Microsecond}
	}
	if resp.op != statusOK {
		return fail(fmt.Errorf("%w: status %d", ErrBadFrame, resp.op))
	}
	spans, err := resp.spans()
	if err != nil {
		return fail(err)
	}
	sp.AddRemoteSpans(spans)
	return nil
}

func (t *tcpTransport) mutate(tr *tableRegion, batch []Mutation, sp telemetry.TSpan) error {
	var req frameWriter
	var resp frameReader
	req.reset(opMutate)
	req.trace(sp)
	req.str(tr.info.Name)
	req.uvarint(uint64(len(batch)))
	for _, m := range batch {
		if m.Delete {
			req.uvarint(1)
		} else {
			req.uvarint(0)
		}
		req.bytes(m.Key)
		req.bytes(m.Value)
	}
	return t.call(tr.primary, &req, &resp, sp)
}

func (t *tcpTransport) get(tr *tableRegion, key []byte, sp telemetry.TSpan) ([]byte, bool, error) {
	var req frameWriter
	var resp frameReader
	req.reset(opGet)
	req.trace(sp)
	req.str(tr.info.Name)
	req.bytes(key)
	if err := t.call(tr.primary, &req, &resp, sp); err != nil {
		return nil, false, err
	}
	found, err := resp.uvarint()
	if err != nil {
		return nil, false, err
	}
	if found == 0 {
		return nil, false, nil
	}
	v, err := resp.bytes()
	if err != nil {
		return nil, false, err
	}
	return append([]byte(nil), v...), true, nil
}

func (t *tcpTransport) openScanner(tr *tableRegion, lo, hi []byte, limit int, sp telemetry.TSpan) (uint64, error) {
	var req frameWriter
	var resp frameReader
	req.reset(opScanOpen)
	req.trace(sp)
	req.str(tr.info.Name)
	req.optBytes(lo)
	req.optBytes(hi)
	req.uvarint(uint64(max(limit, 0)))
	if err := t.call(tr.primary, &req, &resp, sp); err != nil {
		return 0, err
	}
	return resp.uvarint()
}

func (t *tcpTransport) scanNext(tr *tableRegion, id uint64, chunk int, sp telemetry.TSpan) ([]Row, bool, error) {
	var req frameWriter
	var resp frameReader
	req.reset(opScanNext)
	req.trace(sp)
	req.str(tr.info.Name)
	req.uvarint(id)
	req.uvarint(uint64(max(chunk, 0)))
	if err := t.call(tr.primary, &req, &resp, sp); err != nil {
		return nil, false, err
	}
	more, err := resp.uvarint()
	if err != nil {
		return nil, false, err
	}
	n, err := resp.count(2) // a row is at least two lengths
	if err != nil {
		return nil, false, err
	}
	rows := make([]Row, 0, n)
	for i := uint64(0); i < n; i++ {
		k, err := resp.bytes()
		if err != nil {
			return nil, false, err
		}
		v, err := resp.bytes()
		if err != nil {
			return nil, false, err
		}
		rows = append(rows, Row{Key: k, Value: v})
	}
	// The rows alias the frame buffer; hand its ownership to them instead
	// of re-copying every key and value. resp is stack-local, so dropping
	// the reference is all the detaching needed.
	return rows, more == 1, nil
}

func (t *tcpTransport) aggregate(tr *tableRegion, lo, hi []byte, minTS, maxTS, windowMS int64, funcs lsm.AggFuncs, sp telemetry.TSpan) (lsm.AggResult, error) {
	var req frameWriter
	var resp frameReader
	req.reset(opAggregate)
	req.trace(sp)
	req.str(tr.info.Name)
	req.optBytes(lo)
	req.optBytes(hi)
	req.uvarint(uint64(minTS))
	req.uvarint(uint64(maxTS))
	req.uvarint(uint64(windowMS))
	req.uvarint(uint64(funcs))
	if err := t.call(tr.primary, &req, &resp, sp); err != nil {
		return lsm.AggResult{}, err
	}
	var res lsm.AggResult
	folded, err := resp.uvarint()
	if err != nil {
		return lsm.AggResult{}, err
	}
	res.RowsFolded = int64(folded)
	n, err := resp.uvarint()
	if err != nil {
		return lsm.AggResult{}, err
	}
	capHint := n
	if capHint > 4096 {
		capHint = 4096 // bound the pre-allocation; a bogus count fails below
	}
	res.Windows = make([]lsm.WindowAgg, 0, capHint)
	for i := uint64(0); i < n; i++ {
		var w lsm.WindowAgg
		series, err := resp.bytes()
		if err != nil {
			return lsm.AggResult{}, err
		}
		w.Series = append([]byte(nil), series...)
		ws, err := resp.uvarint()
		if err != nil {
			return lsm.AggResult{}, err
		}
		w.WindowStart = int64(ws)
		count, err := resp.uvarint()
		if err != nil {
			return lsm.AggResult{}, err
		}
		w.Count = int64(count)
		for _, dst := range []*float64{&w.Min, &w.Max, &w.Sum} {
			bits, err := resp.uvarint()
			if err != nil {
				return lsm.AggResult{}, err
			}
			*dst = math.Float64frombits(bits)
		}
		res.Windows = append(res.Windows, w)
	}
	return res, nil
}

func (t *tcpTransport) closeScanner(tr *tableRegion, id uint64, sp telemetry.TSpan) error {
	var req frameWriter
	var resp frameReader
	req.reset(opScanClose)
	req.str(tr.info.Name)
	req.uvarint(id)
	return t.call(tr.primary, &req, &resp, sp)
}

func (t *tcpTransport) close() error {
	var firstErr error
	for srv, c := range t.conns {
		if err := c.c.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		delete(t.conns, srv)
	}
	return firstErr
}
