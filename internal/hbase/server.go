package hbase

import (
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"tpcxiot/internal/lsm"
	"tpcxiot/internal/replication"
	"tpcxiot/internal/telemetry"
)

// ErrUnknownScanner is returned by next/close for a scanner id the server
// does not hold — never issued, already exhausted, or reclaimed by lease
// expiry.
var ErrUnknownScanner = errors.New("hbase: unknown scanner (closed or lease expired)")

// ErrOverloaded is the retryable load-shed sentinel: the server refused a
// mutate because its handler queue or a replication catch-up queue exceeded
// its watermark. Match with errors.Is; the concrete *OverloadedError
// carries the retry-after hint.
var ErrOverloaded = errors.New("hbase: server overloaded")

// OverloadedError is the typed retryable error a load-shed returns:
// errors.Is(err, ErrOverloaded) identifies it, RetryAfter hints how long
// the client should back off before retrying. It crosses the TCP protocol
// as a dedicated status frame, so remote clients see the same type.
type OverloadedError struct {
	RetryAfter time.Duration
}

func (e *OverloadedError) Error() string {
	return fmt.Sprintf("hbase: server overloaded, retry after %s", e.RetryAfter)
}

func (e *OverloadedError) Unwrap() error { return ErrOverloaded }

// RegionServer hosts region replicas and bounds request concurrency with a
// handler pool, mirroring hbase.regionserver.handler.count.
type RegionServer struct {
	id       int
	dir      string
	service  string // trace-span service label, e.g. "server-2"
	handlers chan struct{}

	// Admission control: mutates queueing for a handler slot beyond
	// shedWatermark are refused with a retryable OverloadedError instead of
	// blocking without bound. shedWatermark < 0 disables shedding.
	shedWatermark int
	waiting       atomic.Int64 // mutates currently queued for a slot
	shedStreak    atomic.Int64 // consecutive sheds since the last admit

	mu      sync.RWMutex
	regions map[string]*Region // every copy hosted here, by region name

	// Scanner sessions: long-lived server-side scanners (HBase's
	// RegionScanner), each pinning an LSM snapshot. Sessions are leased;
	// ones a client abandons are reclaimed on the next sweep.
	scanMu     sync.Mutex
	scanners   map[uint64]*scannerSession
	nextScanID uint64
	leaseDur   time.Duration

	// Event counters, each counted once where the event happens: Stats
	// reads them; counterTable names those the registry reports. Rows read
	// are rowsStreamed + aggRowsFolded. The aggregation-pushdown
	// counters are queries served, rows folded into partial aggregates
	// inside the server (rows that never crossed the wire), and window
	// partials returned.
	requests, mutations         telemetry.Counter
	sheds                       telemetry.Counter // mutates refused under overload
	scannerOpens, scanChunks    telemetry.Counter
	rowsStreamed, leaseExpiries telemetry.Counter
	aggQueries, aggRowsFolded   telemetry.Counter
	aggWindows                  telemetry.Counter

	nextSpan *telemetry.Timer // scan.next: one chunk fetch
	aggSpan  *telemetry.Timer // agg.fold: one region fold
}

// counterTable is the server's metric table: every counter it attaches to
// the cluster registry under its {server=N} tag.
func (s *RegionServer) counterTable() []telemetry.Named {
	return []telemetry.Named{
		{Name: "hbase.sheds", C: &s.sheds},
		{Name: "hbase.scanner_opens", C: &s.scannerOpens},
		{Name: "hbase.scan_chunks", C: &s.scanChunks},
		{Name: "hbase.scan_rows_streamed", C: &s.rowsStreamed},
		{Name: "hbase.scanner_lease_expiries", C: &s.leaseExpiries},
		{Name: "hbase.agg_queries", C: &s.aggQueries},
		{Name: "hbase.agg_rows_folded", C: &s.aggRowsFolded},
		{Name: "hbase.agg_windows", C: &s.aggWindows},
	}
}

// scannerSession is one open server-side scanner. While a next call is
// advancing it, the session is checked out of the table, so the lease
// sweeper never closes an iterator mid-use; the single-caller client
// contract means no second next for the same id runs concurrently.
type scannerSession struct {
	id        uint64
	it        *lsm.Iter
	limited   bool
	remaining int // rows the scan may still return; meaningful when limited
	deadline  time.Time
}

// ServerStats is a snapshot of one server's counters.
type ServerStats struct {
	ID           int
	Regions      int
	Requests     int64
	Mutations    int64
	RowsRead     int64
	OpenScanners int
	// Sheds counts mutates refused under overload; ShedStreak is the run of
	// consecutive sheds since the last mutate that was admitted and applied
	// — the sustained-overload signal /healthz keys its 503 on.
	Sheds      int64
	ShedStreak int64
}

func newRegionServer(id int, dir string, handlerCount, shedWatermark int, leaseDur time.Duration, reg *telemetry.Registry) *RegionServer {
	s := &RegionServer{
		id:            id,
		dir:           dir,
		service:       "server-" + strconv.Itoa(id),
		handlers:      make(chan struct{}, handlerCount),
		shedWatermark: shedWatermark,
		regions:       make(map[string]*Region),
		scanners:      make(map[uint64]*scannerSession),
		leaseDur:      leaseDur,
		nextSpan:      reg.Timer("scan.next"),
		aggSpan:       reg.Timer("agg.fold"),
	}
	serverTag := telemetry.Tag{Key: "server", Value: strconv.Itoa(id)}
	for _, n := range s.counterTable() {
		reg.Attach(n.C, n.Name, serverTag)
	}
	return s
}

// ID returns the server's index in the cluster.
func (s *RegionServer) ID() int { return s.id }

// acquire blocks until a handler is free; release returns it.
func (s *RegionServer) acquire() { s.handlers <- struct{}{} }
func (s *RegionServer) release() { <-s.handlers }

// admit is acquire with load shedding, used by the write path: a free
// handler slot is always taken, but once shedWatermark mutates are already
// queued the request is refused with a retryable OverloadedError instead of
// deepening the queue. The retry-after hint scales with the queue depth,
// spreading the retry herd.
func (s *RegionServer) admit() error {
	select {
	case s.handlers <- struct{}{}:
		return nil
	default:
	}
	waiting := s.waiting.Load()
	if s.shedWatermark >= 0 && waiting >= int64(s.shedWatermark) {
		return s.shed(waiting)
	}
	s.waiting.Add(1)
	s.handlers <- struct{}{}
	s.waiting.Add(-1)
	return nil
}

// shed records one refused mutate and builds its typed retryable error.
func (s *RegionServer) shed(depth int64) error {
	s.sheds.Inc()
	s.shedStreak.Add(1)
	hint := time.Duration(depth+1) * time.Millisecond
	if hint > 50*time.Millisecond {
		hint = 50 * time.Millisecond
	}
	return &OverloadedError{RetryAfter: hint}
}

// Region is one copy of a table region, hosted by a region server: the LSM
// store holding the copy's rows, and a replication member.
type Region struct {
	name    string
	store   *lsm.Store
	service string // trace-span service label, e.g. "node-02/iot,00001"
}

// ApplyBatch makes the copy a replication.Applier: one engine round for a
// batch whose keys RegionServer.mutate already checked. It appears as a
// "region.apply" span in the copy's own service, with the engine's
// WAL/memtable spans beneath it; the zero TSpan is inert.
func (r *Region) ApplyBatch(parent telemetry.TSpan, b *lsm.Batch) error {
	sp := parent.ChildIn(r.service, "region.apply")
	err := r.store.Apply(sp, b)
	sp.End()
	return err
}

// Store exposes the copy's engine, for stats, settling and tests.
func (r *Region) Store() *lsm.Store { return r.store }

// Flush persists the copy's buffered writes to table files.
func (r *Region) Flush() error { return r.store.Flush() }

// openRegion creates or reopens this server's copy of a region. Its store
// attaches its instruments under {region=..., server=...} tags; the
// registry rolls them up cluster-wide.
func (s *RegionServer) openRegion(name string, storeOpts lsm.Options) (*Region, error) {
	storeOpts.Dir = filepath.Join(s.dir, name)
	storeOpts.Tags = []telemetry.Tag{
		{Key: "region", Value: name},
		{Key: "server", Value: strconv.Itoa(s.id)},
	}
	st, err := lsm.Open(storeOpts)
	if err != nil {
		return nil, fmt.Errorf("hbase: server %d: region %s: %w", s.id, name, err)
	}
	r := &Region{name: name, store: st, service: filepath.Base(s.dir) + "/" + name}
	s.mu.Lock()
	s.regions[name] = r
	s.mu.Unlock()
	return r, nil
}

// hosted returns this server's copy of the named region.
func (s *RegionServer) hosted(name string) (*Region, error) {
	s.mu.RLock()
	r := s.regions[name]
	s.mu.RUnlock()
	if r == nil {
		return nil, fmt.Errorf("hbase: server %d does not host region %s", s.id, name)
	}
	return r, nil
}

// dropRegion destroys this server's copy of the named region, if any.
func (s *RegionServer) dropRegion(name string) error {
	s.mu.Lock()
	r := s.regions[name]
	delete(s.regions, name)
	s.mu.Unlock()
	if r == nil {
		return nil
	}
	return r.store.Destroy()
}

// Regions returns the copies hosted on this server, sorted by region name,
// for introspection (the cluster's /storage and /healthz documents).
func (s *RegionServer) Regions() []*Region {
	s.mu.RLock()
	out := make([]*Region, 0, len(s.regions))
	for _, r := range s.regions {
		out = append(out, r)
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// mutate is the server-side write RPC: the whole batch executes under one
// handler slot and ships through the region's replication group as a single
// batched round — one WAL group append and one memtable critical section
// per replica, with the replica fan-out running in parallel. This is where
// client and wire input enters, and the only place a batch's keys are
// checked: a batch holding an empty key or a key outside the region is
// refused whole before the fan-out, with no sequence assigned, so no copy
// holds any of it and no member stops on it. Under a sampled
// parent (the zero TSpan is inert) the RPC appears as a "server.mutate" span
// in this server's service, with a "server.handler_wait" child covering time
// queued for a handler slot and the replication/engine spans beneath.
func (s *RegionServer) mutate(tr *tableRegion, batch *lsm.Batch, parent telemetry.TSpan) error {
	sp := parent.ChildIn(s.service, "server.mutate")
	defer sp.End()
	waitSp := sp.Child("server.handler_wait")
	if err := s.admit(); err != nil {
		waitSp.End()
		return err
	}
	waitSp.End()
	defer s.release()
	s.requests.Inc()
	if err := tr.checkKeys(batch); err != nil {
		return fmt.Errorf("hbase: mutate: %w", err)
	}
	if err := tr.group.ApplyBatch(sp, batch); err != nil {
		// A full catch-up queue is the replication layer's overload signal:
		// surface it as the same retryable shed the handler queue produces.
		if errors.Is(err, replication.ErrCatchUpFull) {
			return s.shed(int64(tr.group.Stats().MaxQueue()))
		}
		return err
	}
	s.mutations.Add(int64(batch.Len()))
	// A mutate that was admitted AND applied ends any shed streak — the
	// streak measures sheds with no successful write in between, whichever
	// layer (handler queue or catch-up queue) produced them.
	s.shedStreak.Store(0)
	return nil
}

// Row is one key-value pair returned by a scan chunk. Rows are owned
// copies, safe to retain.
type Row struct {
	Key   []byte
	Value []byte
}

// rowSink receives the rows of one scan chunk in key order. key and value
// belong to the iterator and are valid only during the call: the sink makes
// the server's one copy of them, into the connection's response frame or an
// in-process caller's arena.
type rowSink func(key, value []byte)

// scanChunkBytes ends a chunk, with more = true, once its rows reach this
// size: a response frame stays far below maxFrame whatever chunk size and
// limit arrive off the wire.
const scanChunkBytes = 1 << 20

// openScanner is the scanner-session open RPC: it pins an LSM snapshot over
// [lo, hi) on the region's primary copy and registers a leased session. The
// copy holds only the region's keys, so the range needs no clipping.
// limit <= 0 means unlimited. The scanner id is only meaningful on this
// server. Span: "server.scan_open".
func (s *RegionServer) openScanner(tr *tableRegion, lo, hi []byte, limit int, parent telemetry.TSpan) (uint64, error) {
	sp := parent.ChildIn(s.service, "server.scan_open")
	defer sp.End()
	waitSp := sp.Child("server.handler_wait")
	s.acquire()
	waitSp.End()
	defer s.release()
	s.requests.Inc()
	r, err := tr.primary.hosted(tr.name)
	if err != nil {
		return 0, err
	}
	it, err := r.store.NewIterator(lo, hi)
	if err != nil {
		return 0, err
	}
	sess := &scannerSession{it: it, limited: limit > 0, remaining: limit}
	s.scanMu.Lock()
	s.sweepExpiredLocked(time.Now())
	s.nextScanID++
	sess.id = s.nextScanID
	sess.deadline = time.Now().Add(s.leaseDur)
	s.scanners[sess.id] = sess
	s.scanMu.Unlock()
	s.scannerOpens.Inc()
	return sess.id, nil
}

// next is the scanner-session read RPC: it hands up to chunk rows to sink —
// fewer when the limit, the range or scanChunkBytes ends the chunk first —
// under ONE handler slot: a long scan occupies a handler per chunk, not for
// its whole lifetime, so concurrent ingest keeps flowing between chunks.
// more=false means the scan is finished (bound, limit or error) and the
// server has already closed the session. Span: "server.scan_next".
func (s *RegionServer) next(id uint64, chunk int, sink rowSink, parent telemetry.TSpan) (n int, more bool, err error) {
	tsp := parent.ChildIn(s.service, "server.scan_next")
	defer tsp.End()
	waitSp := tsp.Child("server.handler_wait")
	s.acquire()
	waitSp.End()
	defer s.release()
	s.requests.Inc()
	sp := s.nextSpan.Start()
	defer sp.End()
	if chunk <= 0 {
		chunk = defaultScanChunk
	}

	sess, err := s.checkoutScanner(id)
	if err != nil {
		return 0, false, err
	}
	if sess.limited && chunk > sess.remaining {
		chunk = sess.remaining
	}
	it := sess.it
	for size := 0; it.Valid() && n < chunk && size < scanChunkBytes; it.Next() {
		key, value := it.Key(), it.Value()
		sink(key, value)
		// Two bytes stand for the row's length prefixes, so a chunk of empty
		// rows is bounded too.
		size += len(key) + len(value) + 2
		n++
	}
	if sess.limited {
		sess.remaining -= n
	}
	err = it.Error()
	more = err == nil && it.Valid() && !(sess.limited && sess.remaining <= 0)
	if more {
		s.checkinScanner(sess)
	} else {
		it.Close()
	}

	s.scanChunks.Inc()
	s.rowsStreamed.Add(int64(n))
	return n, more, err
}

// aggregate is the server-side aggregation RPC: one handler slot covers the
// whole fold, which runs inside the region's primary copy against a
// snapshot-pinned iterator with file-level key/time/Bloom pruning (see
// lsm.AggregateTime for windowing semantics), and only the per-window
// partials come back — the rows are reduced where they live. Reads take
// acquire (never shed), consistent with the scanner RPCs. The RPC
// appears as "server.aggregate" in this server's service with the handler
// wait and the fold ("agg.fold") as children.
func (s *RegionServer) aggregate(tr *tableRegion, lo, hi []byte, minTS, maxTS, windowMS int64, funcs lsm.AggFuncs, parent telemetry.TSpan) (lsm.AggResult, error) {
	tsp := parent.ChildIn(s.service, "server.aggregate")
	defer tsp.End()
	waitSp := tsp.Child("server.handler_wait")
	s.acquire()
	waitSp.End()
	defer s.release()
	s.requests.Inc()
	r, err := tr.primary.hosted(tr.name)
	if err != nil {
		return lsm.AggResult{}, err
	}

	foldSp := tsp.Child("agg.fold")
	sp := s.aggSpan.Start()
	res, err := r.store.AggregateTime(lo, hi, minTS, maxTS, windowMS, funcs)
	sp.End()
	foldSp.End()
	if err != nil {
		return lsm.AggResult{}, err
	}
	s.aggQueries.Inc()
	s.aggRowsFolded.Add(res.RowsFolded)
	s.aggWindows.Add(int64(len(res.Windows)))
	return res, nil
}

// closeScanner is the scanner-session close RPC. Closing an id the server
// no longer holds (already exhausted, or lease-reclaimed) is a no-op:
// close is how clients abandon scans, and the race with expiry is benign.
func (s *RegionServer) closeScanner(id uint64) error {
	s.acquire()
	defer s.release()
	s.requests.Inc()
	sess, err := s.checkoutScanner(id)
	if err != nil {
		return nil
	}
	return sess.it.Close()
}

// checkoutScanner removes the session from the table for exclusive use;
// callers must check it back in (or close it) before returning.
func (s *RegionServer) checkoutScanner(id uint64) (*scannerSession, error) {
	s.scanMu.Lock()
	defer s.scanMu.Unlock()
	s.sweepExpiredLocked(time.Now())
	sess, ok := s.scanners[id]
	if !ok {
		return nil, ErrUnknownScanner
	}
	delete(s.scanners, id)
	return sess, nil
}

// checkinScanner returns a checked-out session with a renewed lease.
func (s *RegionServer) checkinScanner(sess *scannerSession) {
	s.scanMu.Lock()
	sess.deadline = time.Now().Add(s.leaseDur)
	s.scanners[sess.id] = sess
	s.scanMu.Unlock()
}

// sweepExpiredLocked reclaims sessions whose lease lapsed, releasing their
// pinned snapshots. Caller holds scanMu. The sweep runs on every scanner
// RPC, so an abandoned scanner survives at most one lease period past the
// next scanner activity on the server.
func (s *RegionServer) sweepExpiredLocked(now time.Time) {
	for id, sess := range s.scanners {
		if now.After(sess.deadline) {
			sess.it.Close()
			delete(s.scanners, id)
			s.leaseExpiries.Inc()
		}
	}
}

// OpenScannerCount reports live scanner sessions, for tests and stats.
func (s *RegionServer) OpenScannerCount() int {
	s.scanMu.Lock()
	defer s.scanMu.Unlock()
	return len(s.scanners)
}

// Stats snapshots the server's counters.
func (s *RegionServer) Stats() ServerStats {
	s.mu.RLock()
	regions := len(s.regions)
	s.mu.RUnlock()
	return ServerStats{
		ID:           s.id,
		Regions:      regions,
		Requests:     s.requests.Load(),
		Mutations:    s.mutations.Load(),
		RowsRead:     s.rowsStreamed.Load() + s.aggRowsFolded.Load(),
		OpenScanners: s.OpenScannerCount(),
		Sheds:        s.sheds.Load(),
		ShedStreak:   s.shedStreak.Load(),
	}
}
