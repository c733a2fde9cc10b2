package hbase

import (
	"fmt"

	"tpcxiot/internal/telemetry"
)

// DefaultScanChunk is the number of rows fetched per scanner-session next
// call when the caller does not choose a chunk size. TPCx-IoT's dashboard
// intervals hold a few hundred readings, so the default streams a typical
// query in one or two chunks without ever materializing a large range.
const DefaultScanChunk = 128

// defaultScanChunk is the server-side fallback for a next call that asks
// for a non-positive chunk.
const defaultScanChunk = DefaultScanChunk

// Scanner streams rows with lo <= key < hi in key order, region by region —
// the client half of the scanner-session protocol, mirroring HBase's
// ClientScanner. Each overlapping region is scanned through a server-side
// snapshot scanner in fixed-size chunks, and while the caller consumes one
// chunk the client's sender prefetches the next, overlapping aggregation
// with the chunk RPC. Memory use is O(chunk), independent of the result
// size.
//
// A Scanner belongs to its Client and, like the Client, serves a single
// goroutine. The client stays usable while a Scanner is open: the prefetch
// and any buffer a Put seals meanwhile queue on the same sender, so the
// connection carries one request at a time.
type Scanner struct {
	c      *Client
	lo, hi []byte
	chunk  int

	limited   bool
	remaining int // rows still to hand out when limited

	regions []*tableRegion // overlapping regions in key order
	ri      int            // index of the region being scanned
	id      uint64         // open scanner-session id on regions[ri]
	// open: a server-side session is open and its next chunk is queued on
	// the client's sender, which leaves the chunk in fetched.
	open    bool
	fetched chunkResult

	cur    []Row
	curIdx int
	done   bool
	closed bool
	err    error
}

// chunkResult is one prefetched chunk.
type chunkResult struct {
	rows []Row
	more bool
	err  error
}

// NewScanner opens a streaming scan over [lo, hi) with the default chunk
// size. limit <= 0 is unlimited. Buffered writes are flushed for the
// overlapping regions only, so the scan reads its own writes without
// forcing unrelated regions' batches out early.
func (c *Client) NewScanner(lo, hi []byte, limit int) (*Scanner, error) {
	return c.newScannerChunk(lo, hi, limit, DefaultScanChunk)
}

// newScannerChunk is NewScanner with an explicit rows-per-chunk size.
func (c *Client) newScannerChunk(lo, hi []byte, limit, chunk int) (*Scanner, error) {
	if c.closed {
		return nil, ErrClientClosed
	}
	if err := c.settle(); err != nil {
		return nil, err
	}
	if chunk <= 0 {
		chunk = DefaultScanChunk
	}
	s := &Scanner{
		c:         c,
		lo:        lo,
		hi:        hi,
		chunk:     chunk,
		limited:   limit > 0,
		remaining: limit,
	}
	_, sp := c.tracer.StartTrace("client.scan_setup")
	defer sp.End()
	for _, tr := range c.table.regions {
		if !rangesOverlap(lo, hi, tr.start, tr.end) {
			continue
		}
		if err := c.flushRegion(tr, sp); err != nil {
			return nil, err
		}
		s.regions = append(s.regions, tr)
	}
	return s, nil
}

// Next returns the next row in key order. ok=false without an error means
// the scan is exhausted. Rows are owned copies, safe to retain.
func (s *Scanner) Next() (Row, bool, error) {
	for {
		if s.err != nil || s.closed || s.done {
			return Row{}, false, s.err
		}
		if s.curIdx < len(s.cur) {
			row := s.cur[s.curIdx]
			s.curIdx++
			if s.limited {
				s.remaining--
				// The chunk holding the last row said more=false: the server
				// closed the session at its own limit, and nothing is queued.
				s.done = s.remaining <= 0
			}
			return row, true, nil
		}
		s.fill()
	}
}

// fill advances to the next non-empty chunk: taking the prefetched chunk of
// the current region, moving to the next region, or finishing. A scanner
// whose client closed fails with ErrClientClosed: the client's sender and
// transport are gone.
func (s *Scanner) fill() {
	if s.c.closed {
		s.err = ErrClientClosed
		return
	}
	for {
		if s.open {
			s.c.idle()
			res := s.fetched
			s.fetched = chunkResult{}
			if res.err != nil {
				s.open = false
				s.err = fmt.Errorf("hbase: scan %s: %w", s.regions[s.ri].name, res.err)
				return
			}
			if res.more {
				// Overlap the caller's consumption of this chunk with the
				// next chunk's RPC.
				s.prefetch()
			} else {
				s.open = false
				s.ri++
			}
			if len(res.rows) > 0 {
				s.cur, s.curIdx = res.rows, 0
				return
			}
			continue
		}
		if s.ri >= len(s.regions) || (s.limited && s.remaining <= 0) {
			s.done = true
			return
		}
		tr := s.regions[s.ri]
		lim := 0
		if s.limited {
			lim = s.remaining
		}
		s.c.idle()
		_, sp := s.c.tracer.StartTrace("client.scan_open")
		osp := sp.Child("rpc.scan_open")
		id, err := s.c.rpc.openScanner(tr, s.lo, s.hi, lim, osp)
		osp.End()
		sp.End()
		if err != nil {
			s.err = fmt.Errorf("hbase: scan %s: %w", tr.name, err)
			return
		}
		s.id = id
		s.open = true
		s.prefetch()
	}
}

// prefetch queues the next chunk fetch on the client's sender, behind any
// buffer a Put sealed, so the connection carries one request at a time.
// Each chunk fetch is its own trace root — a sampled chunk carries the
// server's scan_next spans beneath its rpc.scan_next span.
func (s *Scanner) prefetch() {
	tr, id := s.regions[s.ri], s.id
	s.c.submit(func() {
		_, sp := s.c.tracer.StartTrace("client.scan_chunk")
		nsp := sp.Child("rpc.scan_next")
		rows, more, err := s.c.rpc.scanNext(tr, id, s.chunk, nsp)
		nsp.End()
		sp.End()
		s.fetched = chunkResult{rows: rows, more: more, err: err}
	}, telemetry.TSpan{})
}

// Close releases the scanner, abandoning any open server-side session.
// Safe to call more than once and after exhaustion.
func (s *Scanner) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	if !s.open {
		return nil
	}
	s.open = false
	s.c.idle()
	if res := s.fetched; res.err != nil || !res.more {
		return nil // the last chunk ended the session
	}
	return s.c.rpc.closeScanner(s.regions[s.ri], s.id, telemetry.TSpan{})
}
