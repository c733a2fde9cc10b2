// Package ycsb is a YCSB-style workload framework: a database interface
// layer, a pluggable workload abstraction, a multi-threaded client runner,
// and latency/throughput measurement.
//
// TPCx-IoT built its workload driver by adapting the Yahoo! Cloud Serving
// Benchmark (Section III-C of the paper): YCSB supplies the client
// architecture — N worker threads per driver instance issuing operations
// against a DB binding, with per-operation-type latency measurement — and
// TPCx-IoT adds sensor-key generation and range-scan queries. This package
// is that framework; the TPCx-IoT specifics live in the workload package.
package ycsb

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"tpcxiot/internal/histogram"
	"tpcxiot/internal/telemetry"
)

// KV is one row returned by a scan.
type KV struct {
	Key   []byte
	Value []byte
}

// DB is the database interface layer. Implementations ("bindings") connect
// the framework to a concrete store: the live mini-HBase cluster, the
// discrete-event testbed, or an in-memory stub for tests.
//
// Bindings returned by a Binding factory are used by a single thread at a
// time; the factory is called once per worker thread.
type DB interface {
	// Insert stores one key-value pair.
	Insert(key, value []byte) error
	// ScanIter streams rows with lo <= key < hi in key order, at most limit
	// (0 = unlimited), in O(1) binding-side memory for backends with a
	// streaming scan path. The caller must Close the iterator.
	ScanIter(lo, hi []byte, limit int) (RowIter, error)
	// Close releases the binding.
	Close() error
}

// RowIter streams scan rows in key order. Next returns ok=false with a nil
// error when the scan is exhausted. The returned KV's slices are only valid
// until the following Next or Close call — callers that retain rows must
// copy them. A RowIter serves a single goroutine and must be closed.
type RowIter interface {
	Next() (kv KV, ok bool, err error)
	Close() error
}

// SliceIter adapts a materialized row slice to RowIter, for bindings whose
// backend has no streaming scan (rows are owned, so they stay valid across
// calls).
func SliceIter(rows []KV) RowIter { return &sliceIter{rows: rows} }

type sliceIter struct {
	rows []KV
	i    int
}

func (s *sliceIter) Next() (KV, bool, error) {
	if s.i >= len(s.rows) {
		return KV{}, false, nil
	}
	kv := s.rows[s.i]
	s.i++
	return kv, true, nil
}

func (s *sliceIter) Close() error { return nil }

// Binding creates one DB connection per worker thread.
type Binding func(thread int) (DB, error)

// OpKind classifies operations for measurement.
type OpKind int

// Operation kinds.
const (
	OpInsert OpKind = iota
	OpQuery         // TPCx-IoT analytic query (two scans + aggregation)
	opKinds
)

// String names the operation kind.
func (k OpKind) String() string {
	switch k {
	case OpInsert:
		return "INSERT"
	case OpQuery:
		return "QUERY"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

// ThreadWorkload issues a thread's operations. Next executes the next
// operation against db and reports its kind; done=true (with the other
// results ignored) signals the thread's quota is exhausted.
type ThreadWorkload interface {
	Next(db DB) (kind OpKind, done bool, err error)
}

// Workload builds per-thread operation streams. NewThread is called once
// for each worker, with the worker's index and the total worker count.
type Workload interface {
	NewThread(id, of int) ThreadWorkload
}

// RunConfig configures a client run.
type RunConfig struct {
	// Threads is the number of worker goroutines. Defaults to 1.
	Threads int
	// TargetOpsPerSec paces the aggregate operation rate across all
	// threads against a fixed intended-start schedule: thread t's i-th
	// operation is *supposed* to start at threadStart + i/perThreadRate,
	// and the worker sleeps until that instant when it is early. Pacing
	// makes two latencies measurable per operation: service time (from
	// the actual start) and intended latency (from the scheduled start,
	// the coordinated-omission-corrected number — a stalled system delays
	// the ops queued behind the stall, and only the intended measurement
	// charges that delay to the system instead of silently not issuing
	// them). 0 means unpaced open-loop (the classic TPCx-IoT mode), which
	// records service time only.
	TargetOpsPerSec float64
	// StatusInterval, when positive, invokes Status on that period with a
	// progress snapshot — YCSB's periodic status line.
	StatusInterval time.Duration
	// Status receives the periodic snapshots; ignored when StatusInterval
	// is zero. Called from a dedicated goroutine.
	Status func(Status)
	// Registry, when non-nil, additionally receives every operation latency
	// in the shared histograms "op.INSERT" and "op.QUERY" — and, when the run is paced, every intended latency in
	// "intended.INSERT" etc., so a telemetry Ticker surfaces both
	// distributions per interval. The run's own Report is unaffected; the
	// registry gives the Ticker a cluster-wide cross-instance view.
	Registry *telemetry.Registry
}

// Status is one periodic progress snapshot of a running workload.
type Status struct {
	// Elapsed is time since the run started.
	Elapsed time.Duration
	// Ops counts operations completed so far, per kind.
	Ops [opKinds]int64
	// CurrentOpsPerSec is the throughput over the last interval.
	CurrentOpsPerSec float64
}

// Total sums the snapshot's per-kind counters.
func (s Status) Total() int64 {
	var n int64
	for _, c := range s.Ops {
		n += c
	}
	return n
}

// String renders the snapshot as a YCSB-style status line.
func (s Status) String() string {
	return fmt.Sprintf("%8.0fs: %d ops, %.0f ops/s (insert %d, query %d)",
		s.Elapsed.Seconds(), s.Total(), s.CurrentOpsPerSec, s.Ops[OpInsert], s.Ops[OpQuery])
}

// Report is the outcome of one client run.
type Report struct {
	// Start and End bound the measured interval.
	Start, End time.Time
	// Latencies holds one service-time distribution per operation kind
	// (nanoseconds, measured from the operation's actual start).
	Latencies map[OpKind]histogram.Snapshot
	// Intended holds one intended-latency distribution per operation kind
	// (nanoseconds, measured from the operation's scheduled start — the
	// coordinated-omission-corrected view). Empty for unpaced runs.
	Intended map[OpKind]histogram.Snapshot
	// Ops counts completed operations per kind.
	Ops map[OpKind]int64
	// ThreadElapsed records each worker's wall-clock run time.
	ThreadElapsed []time.Duration
	// Err is the first worker error, if any.
	Err error
}

// Elapsed returns the run's wall-clock duration.
func (r *Report) Elapsed() time.Duration { return r.End.Sub(r.Start) }

// TotalOps sums completed operations across kinds.
func (r *Report) TotalOps() int64 {
	var n int64
	for _, c := range r.Ops {
		n += c
	}
	return n
}

// Run drives the workload with cfg.Threads workers and collects measurement.
// Each worker gets its own DB from the binding and its own ThreadWorkload.
// Run returns when every thread's workload reports done or any thread fails.
func Run(cfg RunConfig, binding Binding, w Workload) (*Report, error) {
	if cfg.Threads <= 0 {
		cfg.Threads = 1
	}
	if binding == nil || w == nil {
		return nil, errors.New("ycsb: binding and workload are required")
	}

	hists := make([]*histogram.Histogram, opKinds)
	shared := make([]*histogram.Histogram, opKinds)
	intended := make([]*histogram.Histogram, opKinds)
	sharedIntended := make([]*histogram.Histogram, opKinds)
	for i := range hists {
		hists[i] = histogram.New()
		if cfg.Registry != nil {
			shared[i] = cfg.Registry.Histogram("op." + OpKind(i).String())
		}
		if cfg.TargetOpsPerSec > 0 {
			intended[i] = histogram.New()
			if cfg.Registry != nil {
				sharedIntended[i] = cfg.Registry.Histogram("intended." + OpKind(i).String())
			}
		}
	}
	var opCounts [opKinds]atomic.Int64

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		elapsed  = make([]time.Duration, cfg.Threads)
	)
	perThreadTarget := 0.0
	if cfg.TargetOpsPerSec > 0 {
		perThreadTarget = cfg.TargetOpsPerSec / float64(cfg.Threads)
	}

	start := time.Now()

	// Periodic status reporting, YCSB-style.
	statusDone := make(chan struct{})
	statusStopped := make(chan struct{})
	if cfg.StatusInterval > 0 && cfg.Status != nil {
		go func() {
			defer close(statusStopped)
			ticker := time.NewTicker(cfg.StatusInterval)
			defer ticker.Stop()
			var lastTotal int64
			for {
				select {
				case <-statusDone:
					return
				case <-ticker.C:
					var snap Status
					snap.Elapsed = time.Since(start)
					for k := 0; k < int(opKinds); k++ {
						snap.Ops[k] = opCounts[k].Load()
					}
					total := snap.Total()
					snap.CurrentOpsPerSec = float64(total-lastTotal) /
						cfg.StatusInterval.Seconds()
					lastTotal = total
					cfg.Status(snap)
				}
			}
		}()
	} else {
		close(statusStopped)
	}

	for t := 0; t < cfg.Threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			threadStart := time.Now()
			defer func() { elapsed[t] = time.Since(threadStart) }()

			db, err := binding(t)
			if err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = fmt.Errorf("ycsb: thread %d binding: %w", t, err)
				}
				mu.Unlock()
				return
			}
			defer db.Close()

			tw := w.NewThread(t, cfg.Threads)
			var opsDone int64
			for {
				mu.Lock()
				stop := firstErr != nil
				mu.Unlock()
				if stop {
					return
				}

				// Intended-start schedule: op i of this thread is due at
				// threadStart + i/perThreadTarget. An early worker sleeps
				// until the due time; a late worker issues immediately and
				// the schedule does NOT slip — the backlog shows up as
				// intended latency on every delayed op.
				var intendedStart time.Time
				if perThreadTarget > 0 {
					intendedStart = threadStart.Add(
						time.Duration(float64(opsDone) / perThreadTarget * float64(time.Second)))
					if wait := time.Until(intendedStart); wait > 0 {
						time.Sleep(wait)
					}
				}

				opStart := time.Now()
				kind, done, err := tw.Next(db)
				if done {
					return
				}
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("ycsb: thread %d op: %w", t, err)
					}
					mu.Unlock()
					return
				}
				opEnd := time.Now()
				lat := opEnd.Sub(opStart).Nanoseconds()
				hists[kind].Record(lat)
				if shared[kind] != nil {
					shared[kind].Record(lat)
				}
				if perThreadTarget > 0 {
					// opStart >= intendedStart always, so the intended
					// latency dominates the service time: the two agree on
					// a healthy run and diverge exactly when the system
					// pushes the schedule behind.
					ilat := opEnd.Sub(intendedStart).Nanoseconds()
					intended[kind].Record(ilat)
					if sharedIntended[kind] != nil {
						sharedIntended[kind].Record(ilat)
					}
				}
				opCounts[kind].Add(1)
				opsDone++
			}
		}(t)
	}
	wg.Wait()
	close(statusDone)
	<-statusStopped
	end := time.Now()

	rep := &Report{
		Start:         start,
		End:           end,
		Latencies:     make(map[OpKind]histogram.Snapshot, opKinds),
		Intended:      make(map[OpKind]histogram.Snapshot, opKinds),
		Ops:           make(map[OpKind]int64, opKinds),
		ThreadElapsed: elapsed,
		Err:           firstErr,
	}
	for k := OpKind(0); k < opKinds; k++ {
		snap := hists[k].Snapshot()
		if snap.Count() > 0 {
			rep.Latencies[k] = snap
			rep.Ops[k] = snap.Count()
		}
		if intended[k] != nil {
			if isnap := intended[k].Snapshot(); isnap.Count() > 0 {
				rep.Intended[k] = isnap
			}
		}
	}
	return rep, firstErr
}
