package hbase

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"tpcxiot/internal/telemetry"
)

// ErrClientClosed is returned by operations on a closed client.
var ErrClientClosed = errors.New("hbase: client is closed")

// Client is a table handle with a client-side write buffer, the analogue of
// an HBase Table/BufferedMutator pair. Puts accumulate per region until the
// buffer exceeds WriteBufferBytes (hbase.client.write.buffer) and are then
// shipped as one batched RPC per region. A Client is NOT safe for
// concurrent use — create one per worker goroutine, exactly as YCSB binds
// one HBase client per driver thread.
type Client struct {
	table  *Table
	rpc    transport
	tracer *telemetry.Tracer // nil disables tracing

	// WriteBufferBytes is the autoflush threshold. Non-positive disables
	// buffering (every Put flushes immediately).
	writeBufferBytes int64

	buffers  map[*tableRegion][]Mutation
	buffered int64
	closed   bool

	// Overload-retry policy (Config.RetryMax/RetryBaseDelay/RetryMaxDelay):
	// a shed mutate is retried with capped exponential backoff plus jitter,
	// never below the server's retry-after hint.
	retryMax  int
	retryBase time.Duration
	retryCap  time.Duration
	rng       *rand.Rand
	retries   int64 // sheds this client retried
	shedFails int64 // mutates that stayed shed after every retry

	flushesC   *telemetry.Counter // hbase.buffer_flushes
	retriesC   *telemetry.Counter // hbase.client_retries
	shedFailsC *telemetry.Counter // hbase.client_retry_exhausted
	flushSpan  *telemetry.Timer   // put.client_flush
}

// NewClient returns an in-process client for the table with the given
// write buffer size in bytes. The paper's tuning sets an 8 GB client
// buffer; realistic values here are a few MiB.
func (cl *Cluster) NewClient(tableName string, writeBufferBytes int64) (*Client, error) {
	return cl.newClient(tableName, writeBufferBytes, inprocTransport{})
}

// NewTCPClient returns a client that reaches the region servers over the
// loopback TCP wire protocol. The cluster must be serving (ServeTCP).
func (cl *Cluster) NewTCPClient(tableName string, writeBufferBytes int64) (*Client, error) {
	rpc, err := newTCPTransport(cl)
	if err != nil {
		return nil, err
	}
	return cl.newClient(tableName, writeBufferBytes, rpc)
}

func (cl *Cluster) newClient(tableName string, writeBufferBytes int64, rpc transport) (*Client, error) {
	t, err := cl.Table(tableName)
	if err != nil {
		return nil, err
	}
	return &Client{
		table:            t,
		rpc:              rpc,
		tracer:           cl.cfg.Tracer,
		writeBufferBytes: writeBufferBytes,
		buffers:          make(map[*tableRegion][]Mutation),
		retryMax:         cl.cfg.RetryMax,
		retryBase:        cl.cfg.RetryBaseDelay,
		retryCap:         cl.cfg.RetryMaxDelay,
		rng:              rand.New(rand.NewSource(time.Now().UnixNano())),
		flushesC:         cl.cfg.Registry.Counter("hbase.buffer_flushes"),
		retriesC:         cl.cfg.Registry.Counter("hbase.client_retries"),
		shedFailsC:       cl.cfg.Registry.Counter("hbase.client_retry_exhausted"),
		flushSpan:        cl.cfg.Registry.Timer("put.client_flush"),
	}, nil
}

// Put buffers a write. The key and value are copied. When the put is the
// sampled one, its whole span tree — buffer, flush, RPC, and the server-side
// engine work stitched back from the response — lands in the tracer.
func (c *Client) Put(key, value []byte) error {
	_, sp := c.tracer.StartTrace("client.put")
	err := c.buffer(Mutation{
		Key:   append([]byte(nil), key...),
		Value: append([]byte(nil), value...),
	}, sp)
	sp.End()
	return err
}

// Delete buffers a tombstone.
func (c *Client) Delete(key []byte) error {
	_, sp := c.tracer.StartTrace("client.delete")
	err := c.buffer(Mutation{Key: append([]byte(nil), key...), Delete: true}, sp)
	sp.End()
	return err
}

func (c *Client) buffer(m Mutation, sp telemetry.TSpan) error {
	if c.closed {
		return ErrClientClosed
	}
	tr := c.table.locate(m.Key)
	c.buffers[tr] = append(c.buffers[tr], m)
	c.buffered += int64(len(m.Key) + len(m.Value))
	if c.buffered >= c.writeBufferBytes {
		fl := sp.Child("client.flush")
		err := c.flushCommits(fl)
		fl.End()
		return err
	}
	return nil
}

// FlushCommits ships all buffered mutations, one batched RPC per region.
// On a mid-flush failure the already-shipped regions stay flushed and the
// failed region's batch stays buffered, with BufferedBytes reflecting
// exactly what remains — a later FlushCommits retries just the remainder.
func (c *Client) FlushCommits() error {
	_, sp := c.tracer.StartTrace("client.flush")
	err := c.flushCommits(sp)
	sp.End()
	return err
}

func (c *Client) flushCommits(sp telemetry.TSpan) error {
	if c.closed {
		return ErrClientClosed
	}
	tsp := c.flushSpan.Start()
	for tr := range c.buffers {
		if err := c.flushRegion(tr, sp); err != nil {
			return err
		}
	}
	tsp.End()
	c.flushesC.Inc()
	return nil
}

// flushRegion ships one region's buffered batch, leaving every other
// region's buffer untouched. Reads flush this way: only the region being
// read needs its writes visible, so a Get or Scan over one key range no
// longer forces every region's batch out early.
func (c *Client) flushRegion(tr *tableRegion, sp telemetry.TSpan) error {
	batch := c.buffers[tr]
	if len(batch) == 0 {
		delete(c.buffers, tr)
		return nil
	}
	var err error
	for attempt := 0; ; attempt++ {
		rpcSp := sp.Child("rpc.mutate")
		err = c.rpc.mutate(tr, batch, rpcSp)
		rpcSp.End()
		if err == nil {
			break
		}
		var over *OverloadedError
		if !errors.As(err, &over) || c.retryMax < 0 || attempt >= c.retryMax {
			if over != nil {
				c.shedFails++
				c.shedFailsC.Inc()
			}
			return fmt.Errorf("hbase: flush to %s: %w", tr.info.Name, err)
		}
		c.retries++
		c.retriesC.Inc()
		time.Sleep(c.backoffDelay(attempt, over.RetryAfter))
	}
	c.buffered -= mutationBytes(batch)
	delete(c.buffers, tr)
	return nil
}

// backoffDelay computes the wait before retry #attempt: exponential from
// RetryBaseDelay, capped at RetryMaxDelay, jittered over [d/2, d) so
// concurrent shed clients don't retry in lockstep, and never below the
// server's retry-after hint.
func (c *Client) backoffDelay(attempt int, hint time.Duration) time.Duration {
	d := c.retryBase << uint(attempt)
	if d > c.retryCap || d <= 0 { // <= 0: shift overflow
		d = c.retryCap
	}
	if half := d / 2; half > 0 {
		d = half + time.Duration(c.rng.Int63n(int64(half)+1))
	}
	if d < hint {
		d = hint
	}
	return d
}

// RetryStats reports how many shed mutates this client retried and how many
// exhausted their retries, for retry-aware op accounting upstream.
func (c *Client) RetryStats() (retries, exhausted int64) {
	return c.retries, c.shedFails
}

// mutationBytes is the buffer accounting for a batch: the same per-mutation
// size buffer() adds.
func mutationBytes(batch []Mutation) int64 {
	var n int64
	for i := range batch {
		n += int64(len(batch[i].Key) + len(batch[i].Value))
	}
	return n
}

// BufferedBytes reports the current client-side buffer occupancy.
func (c *Client) BufferedBytes() int64 { return c.buffered }

// Get reads one key from the region's primary, after flushing any buffered
// write for that region so the client reads its own writes. Only the
// target region's batch is shipped — other regions keep batching.
func (c *Client) Get(key []byte) ([]byte, bool, error) {
	if c.closed {
		return nil, false, ErrClientClosed
	}
	_, sp := c.tracer.StartTrace("client.get")
	defer sp.End()
	tr := c.table.locate(key)
	if len(c.buffers[tr]) > 0 {
		if err := c.flushRegion(tr, sp); err != nil {
			return nil, false, err
		}
	}
	gsp := sp.Child("rpc.get")
	v, ok, err := c.rpc.get(tr, key, gsp)
	gsp.End()
	return v, ok, err
}

// Scan reads all rows with lo <= key < hi (nil hi scans to the table end)
// and materializes the whole result. It is a thin wrapper over Scanner for
// callers that want a slice; use NewScanner to stream in O(chunk) memory.
// limit <= 0 is unlimited.
func (c *Client) Scan(lo, hi []byte, limit int) ([]Row, error) {
	sc, err := c.NewScanner(lo, hi, limit)
	if err != nil {
		return nil, err
	}
	defer sc.Close()
	var out []Row
	for {
		row, ok, err := sc.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		out = append(out, row)
	}
}

// rangesOverlap reports whether scan range [lo,hi) intersects region range
// [start,end), treating nil as unbounded.
func rangesOverlap(lo, hi, start, end []byte) bool {
	if hi != nil && start != nil && bytes.Compare(hi, start) <= 0 {
		return false
	}
	if end != nil && lo != nil && bytes.Compare(lo, end) >= 0 {
		return false
	}
	return true
}

// Close flushes outstanding writes, releases the transport and invalidates
// the client.
func (c *Client) Close() error {
	if c.closed {
		return nil
	}
	err := c.FlushCommits()
	c.closed = true
	if cerr := c.rpc.close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}
