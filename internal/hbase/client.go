package hbase

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"tpcxiot/internal/lsm"
	"tpcxiot/internal/telemetry"
)

// ErrClientClosed is returned by operations on a closed client.
var ErrClientClosed = errors.New("hbase: client is closed")

// maxInFlight bounds a client's outstanding sender jobs: one on the wire and
// one queued behind it. A Put that seals a full buffer blocks only when both
// are taken. One job on the wire at a time is HBase's default of one task
// per region (hbase.client.max.perregion.tasks).
const maxInFlight = 2

// Client is a table handle with a client-side write buffer, the analogue of
// an HBase Table/BufferedMutator pair. Puts accumulate per region until the
// buffer exceeds WriteBufferBytes (hbase.client.write.buffer); the Put that
// crosses it seals the buffer and hands it to the client's sender goroutine,
// which ships one batched RPC per region while the caller fills the next
// buffer. A Client is NOT safe for concurrent use — create one per worker
// goroutine, exactly as YCSB binds one HBase client per driver thread.
//
// A write is acknowledged once FlushCommits, Close or a read returns nil
// after it: those first wait until the sender is idle, then use the
// transport on the caller's goroutine. The sender's first failure is
// returned by the next Put, FlushCommits, Close, NewScanner or
// Aggregate, with every batch it did not ship back in the buffer.
type Client struct {
	table  *Table
	rpc    transport
	tracer *telemetry.Tracer // nil disables tracing

	// WriteBufferBytes is the autoflush threshold. Non-positive seals every
	// Put on its own.
	writeBufferBytes int64

	buffers  map[*tableRegion]*lsm.Batch
	buffered int64
	closed   bool
	// sealed is the length of the last batch sealed for each region: a
	// region's new batch starts with that much room, so that Add does not
	// grow it. A sealed batch's buffer is never reused: the memtables of
	// the region's copies keep its bytes.
	sealed map[*tableRegion]int

	// The sender: one goroutine, started by the first job and stopped by
	// Close, runs the jobs in submission order — sealed buffers and scanner
	// chunk fetches — so the transport has one user at a time. inflight
	// counts jobs not yet done; waiting on it is how the caller takes the
	// transport back.
	jobs     chan func()
	stopped  chan struct{} // closed when the sender has exited
	inflight sync.WaitGroup
	// Sender-owned failure state, read by the caller only once the sender is
	// idle: the first error and the batches not shipped since. failed lets a
	// Put notice the failure without waiting.
	sendErr error
	unsent  []regionBatch
	failed  atomic.Bool

	// Overload-retry policy (Config.RetryMax/RetryBaseDelay/RetryMaxDelay):
	// a shed mutate is retried with capped exponential backoff plus jitter,
	// never below the server's retry-after hint.
	retryMax  int
	retryBase time.Duration
	retryCap  time.Duration
	rng       *rand.Rand
	retries   atomic.Int64 // sheds this client retried
	shedFails atomic.Int64 // mutates that stayed shed after every retry

	flushesC   *telemetry.Counter // hbase.buffer_flushes
	retriesC   *telemetry.Counter // hbase.client_retries
	shedFailsC *telemetry.Counter // hbase.client_retry_exhausted
	waitsC     *telemetry.Counter // hbase.client_flush_waits
	flushSpan  *telemetry.Timer   // put.client_flush
	flushLag   *telemetry.Timer   // hbase.flush_lag: seal to ack
}

// regionBatch is one region's share of a sealed buffer. A batch handed to
// the transport is never added to again: after a failed mutate a stopped
// member's queue may still hold it, so rebuffer copies its rows.
type regionBatch struct {
	tr    *tableRegion
	batch *lsm.Batch
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
		buffers:          make(map[*tableRegion]*lsm.Batch),
		sealed:           make(map[*tableRegion]int),
		retryMax:         cl.cfg.RetryMax,
		retryBase:        cl.cfg.RetryBaseDelay,
		retryCap:         cl.cfg.RetryMaxDelay,
		rng:              rand.New(rand.NewSource(time.Now().UnixNano())),
		flushesC:         cl.cfg.Registry.Counter("hbase.buffer_flushes"),
		retriesC:         cl.cfg.Registry.Counter("hbase.client_retries"),
		shedFailsC:       cl.cfg.Registry.Counter("hbase.client_retry_exhausted"),
		waitsC:           cl.cfg.Registry.Counter("hbase.client_flush_waits"),
		flushSpan:        cl.cfg.Registry.Timer("put.client_flush"),
		flushLag:         cl.cfg.Registry.Timer("hbase.flush_lag"),
	}, nil
}

// Put copies a write into its region's batch, as the WAL record the
// region's stores will log; an empty key is refused here, before it could
// reach a region. The write is buffered even when the call returns the
// sender's failure, so it ships with a later flush. When the put is the
// sampled one, its span tree covers buffering and any wait at the in-flight
// bound; the flush it seals is a trace of its own.
func (c *Client) Put(key, value []byte) error {
	_, sp := c.tracer.StartTrace("client.put")
	defer sp.End()
	if c.closed {
		return ErrClientClosed
	}
	if len(key) == 0 {
		return fmt.Errorf("hbase: %w", lsm.ErrBadKey)
	}
	tr := c.table.locate(key)
	b := c.buffers[tr]
	if b == nil {
		b = lsm.NewBatch(c.sealed[tr])
		c.buffers[tr] = b
	}
	b.Add(key, value)
	c.buffered += int64(len(key) + len(value))
	if c.failed.Load() {
		return c.settle()
	}
	if c.buffered >= c.writeBufferBytes {
		batches, lag := c.seal(), c.flushLag.Start()
		c.submit(func() { c.send(batches, lag) }, sp)
	}
	return nil
}

// seal takes every region's batch out of the buffer, noting its length.
func (c *Client) seal() []regionBatch {
	batches := make([]regionBatch, 0, len(c.buffers))
	for tr, batch := range c.buffers {
		batches = append(batches, regionBatch{tr, batch})
		c.sealed[tr] = len(batch.Bytes())
	}
	clear(c.buffers)
	c.buffered = 0
	return batches
}

// rebuffer puts batches that were not shipped back into the buffer, in
// order and ahead of anything buffered for their region since they were
// sealed. Each region gets a new batch, so no sealed one is added to.
func (c *Client) rebuffer(batches []regionBatch) {
	for i := len(batches) - 1; i >= 0; i-- {
		b := batches[i]
		since := c.buffers[b.tr]
		if since == nil {
			since = new(lsm.Batch)
		}
		merged := lsm.NewBatch(len(b.batch.Bytes()) + len(since.Bytes()))
		b.batch.Each(merged.Add)
		since.Each(merged.Add)
		c.buffers[b.tr] = merged
		c.buffered += b.batch.Size()
	}
}

// submit queues job on the sender, starting it on first use. With
// maxInFlight jobs outstanding the caller blocks until the one on the wire
// completes, counted in hbase.client_flush_waits and, under a sampled sp,
// spanned as client.flush_wait.
func (c *Client) submit(job func(), sp telemetry.TSpan) {
	if c.jobs == nil {
		c.jobs, c.stopped = make(chan func(), maxInFlight-1), make(chan struct{})
		go c.run()
	}
	c.inflight.Add(1)
	select {
	case c.jobs <- job:
		return
	default:
	}
	c.waitsC.Inc()
	wsp := sp.Child("client.flush_wait")
	c.jobs <- job
	wsp.End()
}

// run is the sender goroutine: jobs one at a time, in submission order, so
// at most one batch per region is ever on the wire and a region's batches
// are applied in seal order, shed retries included.
func (c *Client) run() {
	defer close(c.stopped)
	for job := range c.jobs {
		job()
		c.inflight.Done()
	}
}

// send is the sender's job for one sealed buffer, its own trace root. After
// a failure nothing more is shipped: this buffer's unshipped batches and
// every one sealed after it wait in unsent for the caller to take back.
func (c *Client) send(batches []regionBatch, lag telemetry.Span) {
	if c.sendErr != nil {
		c.unsent = append(c.unsent, batches...)
		return
	}
	_, sp := c.tracer.StartTrace("client.flush")
	n, err := c.flush(batches, sp)
	sp.End()
	if err != nil {
		c.sendErr, c.unsent = err, batches[n:]
		c.failed.Store(true)
		return
	}
	lag.End()
}

// idle waits until the sender has nothing queued or on the wire; the
// caller may then use the transport itself.
func (c *Client) idle() { c.inflight.Wait() }

// settle waits for the sender and returns its failure once, with the
// batches it did not ship back in the buffer.
func (c *Client) settle() error {
	c.idle()
	err := c.sendErr
	if err != nil {
		c.rebuffer(c.unsent)
		c.sendErr, c.unsent = nil, nil
		c.failed.Store(false)
	}
	return err
}

// FlushCommits ships all buffered mutations, one batched RPC per region,
// once the sender is idle. On a mid-flush failure the already-shipped
// regions stay flushed and the failed region's batch stays buffered, with
// c.buffered reflecting exactly what remains — a later FlushCommits
// retries just the remainder.
func (c *Client) FlushCommits() error {
	if c.closed {
		return ErrClientClosed
	}
	if err := c.settle(); err != nil {
		return err
	}
	_, sp := c.tracer.StartTrace("client.flush")
	batches := c.seal()
	n, err := c.flush(batches, sp)
	sp.End()
	if err != nil {
		c.rebuffer(batches[n:])
	}
	return err
}

// flushRegion ships one region's buffered batch on the caller's goroutine,
// leaving every other region's buffer untouched. Reads flush this way: only
// the region being read needs its writes visible, so a scan or aggregate
// over one key range does not force every region's batch out early. The
// sender must be idle. A read's flush is not a buffer flush: it is neither
// counted in hbase.buffer_flushes nor timed in put.client_flush. On a
// failure its rows stay buffered, in a new batch.
func (c *Client) flushRegion(tr *tableRegion, sp telemetry.TSpan) error {
	batch := c.buffers[tr]
	if batch == nil {
		return nil
	}
	delete(c.buffers, tr)
	c.buffered -= batch.Size()
	if err := c.mutate(regionBatch{tr, batch}, sp); err != nil {
		c.rebuffer([]regionBatch{{tr, batch}})
		return err
	}
	return nil
}

// flush ships a sealed buffer's batches one at a time, in order, and
// returns how many were acked; on an error the rest are unshipped.
func (c *Client) flush(batches []regionBatch, sp telemetry.TSpan) (int, error) {
	tsp := c.flushSpan.Start()
	for i, b := range batches {
		if err := c.mutate(b, sp); err != nil {
			return i, err
		}
	}
	tsp.End()
	c.flushesC.Inc()
	return len(batches), nil
}

// mutate ships one region's batch, retrying a load-shed with backoff.
func (c *Client) mutate(b regionBatch, sp telemetry.TSpan) error {
	for attempt := 0; ; attempt++ {
		rpcSp := sp.Child("rpc.mutate")
		err := c.rpc.mutate(b.tr, b.batch, rpcSp)
		rpcSp.End()
		if err == nil {
			return nil
		}
		var over *OverloadedError
		if !errors.As(err, &over) || c.retryMax < 0 || attempt >= c.retryMax {
			if over != nil {
				c.shedFails.Add(1)
				c.shedFailsC.Inc()
			}
			return fmt.Errorf("hbase: flush to %s: %w", b.tr.name, err)
		}
		c.retries.Add(1)
		c.retriesC.Inc()
		time.Sleep(c.backoffDelay(attempt, over.RetryAfter))
	}
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
// exhausted their retries, for retry-aware op accounting upstream. Safe to
// call while the sender is shipping.
func (c *Client) RetryStats() (retries, exhausted int64) {
	return c.retries.Load(), c.shedFails.Load()
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

// Close flushes outstanding writes, stops the sender, releases the
// transport and invalidates the client. A flush that ends shed — the
// sender reporting a batch it gave up on, now back in the buffer, or the
// flush's own last retry — is made once more before Close gives up.
func (c *Client) Close() error {
	if c.closed {
		return nil
	}
	err := c.FlushCommits()
	if errors.Is(err, ErrOverloaded) {
		err = c.FlushCommits()
	}
	c.closed = true
	if c.jobs != nil {
		close(c.jobs)
		<-c.stopped
	}
	if cerr := c.rpc.close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}
