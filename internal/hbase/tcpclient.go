package hbase

import (
	"bufio"
	"fmt"
	"net"

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
	mutate(tr *tableRegion, batch *lsm.Batch, sp telemetry.TSpan) error
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

func (inprocTransport) mutate(tr *tableRegion, batch *lsm.Batch, sp telemetry.TSpan) error {
	return tr.primary.mutate(tr, batch, sp)
}

func (inprocTransport) openScanner(tr *tableRegion, lo, hi []byte, limit int, sp telemetry.TSpan) (uint64, error) {
	return tr.primary.openScanner(tr, lo, hi, limit, sp)
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
	return tr.primary.aggregate(tr, lo, hi, minTS, maxTS, windowMS, funcs, sp)
}

func (inprocTransport) close() error { return nil }

// tcpTransport speaks the wire protocol, one lazily dialled connection per
// region server. It has one user at a time — its Client's caller or the
// Client's sender, handing it over through the sender's queue — so no
// locking is needed.
type tcpTransport struct {
	addrs map[*RegionServer]string
	conns map[*RegionServer]*tcpConn
}

// tcpConn is one connection and its request frame, reused call after call:
// a kit batch is rebuilt in place instead of grown from empty. Response
// frames are not reused, because chunk rows alias them.
type tcpConn struct {
	c   net.Conn
	r   *bufio.Reader
	req frameWriter
}

// connReadBuf sizes the reader in front of a connection, at both ends: a
// small message (an ack, a scan open, an aggregate) arrives header and all
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

// call sends tr's region an op request — the trace header when sp is
// sampled, then the fields encode writes — and returns the response with
// its status read: a server error, a load-shed, a failed round trip or a
// malformed frame is the response's err, and every result read behind it is
// a zero value. For sampled operations the server's span block is stitched
// under sp's trace. A failed write or read discards the connection, so the
// next call redials; a server error or a load-shed leaves it usable.
func (t *tcpTransport) call(tr *tableRegion, op byte, sp telemetry.TSpan, encode func(req *frameWriter)) (resp frameReader) {
	c, err := t.conn(tr.primary)
	if err == nil {
		c.req.request(op, sp, tr.name)
		encode(&c.req)
		err = c.req.flush(c.c)
	}
	if err != nil {
		resp.fail(err)
	} else {
		resp.readFrame(c.r)
	}
	if resp.err != nil && c != nil {
		c.c.Close()
		delete(t.conns, tr.primary)
	}
	resp.status(sp)
	return resp
}

func (t *tcpTransport) mutate(tr *tableRegion, batch *lsm.Batch, sp telemetry.TSpan) error {
	return t.call(tr, opMutate, sp, func(req *frameWriter) { req.batch(batch) }).err
}

func (t *tcpTransport) openScanner(tr *tableRegion, lo, hi []byte, limit int, sp telemetry.TSpan) (uint64, error) {
	resp := t.call(tr, opScanOpen, sp, func(req *frameWriter) { req.scanOpen(lo, hi, limit) })
	id := resp.uvarint()
	return id, resp.err
}

func (t *tcpTransport) scanNext(tr *tableRegion, id uint64, chunk int, sp telemetry.TSpan) ([]Row, bool, error) {
	resp := t.call(tr, opScanNext, sp, func(req *frameWriter) { req.scanNext(id, chunk) })
	rows, more := resp.chunk()
	return rows, more, resp.err
}

func (t *tcpTransport) aggregate(tr *tableRegion, lo, hi []byte, minTS, maxTS, windowMS int64, funcs lsm.AggFuncs, sp telemetry.TSpan) (lsm.AggResult, error) {
	resp := t.call(tr, opAggregate, sp, func(req *frameWriter) { req.aggregate(lo, hi, minTS, maxTS, windowMS, funcs) })
	res := resp.aggResult()
	return res, resp.err
}

// closeScanner sends no trace header: Scanner.Close abandons a session
// outside any sampled operation.
func (t *tcpTransport) closeScanner(tr *tableRegion, id uint64, _ telemetry.TSpan) error {
	return t.call(tr, opScanClose, telemetry.TSpan{}, func(req *frameWriter) { req.uvarint(id) }).err
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
