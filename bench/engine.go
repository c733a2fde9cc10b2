package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sync"
	"time"

	"tpcxiot/internal/lsm"
	"tpcxiot/internal/wal"
)

// engineWriters is the number of writer goroutines: one per core of the
// 2-core reference box, so at most two batches are in flight.
const engineWriters = 2

// engine is one lsm.Store with fsync on every batch and nothing above it.
// Writer w owns "substation" w; its batch b holds the readings of
// EngineBatchRows consecutive (step, sensor) slots, so timestamps advance one
// second every EngineSensors rows and a run crosses several compaction
// windows.
type engine struct {
	env   runEnv
	rows  *rowMaker
	opts  lsm.Options
	store *lsm.Store
	acked [engineWriters]int64 // batches acked per writer, warm-up included
}

func openEngine(env runEnv) (system, error) {
	e := &engine{env: env, rows: newRowMaker(env.seed)}
	e.opts = lsm.Options{
		Dir:          env.dir,
		MemtableSize: env.sz.EngineMemtable,
		WALSync:      wal.SyncOnAppend,
		Registry:     env.reg,
	}
	var err error
	if e.store, err = lsm.Open(e.opts); err != nil {
		return nil, err
	}
	if _, _, err := e.write(time.Time{}, int64(env.sz.EngineWarmBatches)); err != nil {
		e.store.Close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return e, nil
}

// batch builds writer w's batch b.
func (e *engine) batch(w int, b int64, into []lsm.Write) ([]lsm.Write, error) {
	into = into[:0]
	n := int64(e.env.sz.EngineBatchRows)
	sensors := int64(e.env.sz.EngineSensors)
	for slot := b * n; slot < (b+1)*n; slot++ {
		k, v, err := e.rows.row(w, int(slot%sensors), slot/sensors)
		if err != nil {
			return nil, err
		}
		into = append(into, lsm.Write{Key: k, Value: v})
	}
	return into, nil
}

// write runs both writers until the deadline, or for maxBatches each when it
// is positive. It returns each batch's latency and how many failed.
func (e *engine) write(deadline time.Time, maxBatches int64) (ns []int64, failed int64, err error) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < engineWriters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var mine []int64
			var buf []lsm.Write
			var werr error
			for n := int64(0); ; n++ {
				if maxBatches > 0 && n >= maxBatches {
					break
				}
				if maxBatches == 0 && !time.Now().Before(deadline) {
					break
				}
				if buf, werr = e.batch(w, e.acked[w], buf); werr != nil {
					break
				}
				_, root := e.env.tracer.StartTrace("engine.batch")
				start := time.Now()
				werr = e.store.ApplyBatchTraced(root, buf)
				took := time.Since(start).Nanoseconds()
				root.End()
				if werr != nil {
					break
				}
				e.acked[w]++
				mine = append(mine, took)
			}
			mu.Lock()
			defer mu.Unlock()
			ns = append(ns, mine...)
			if werr != nil {
				failed++
				if err == nil {
					err = fmt.Errorf("writer %d: %w", w, werr)
				}
			}
		}(w)
	}
	wg.Wait()
	return ns, failed, err
}

func (e *engine) measure(seconds float64) (*window, error) {
	start := time.Now()
	ns, failed, err := e.write(start.Add(time.Duration(seconds*float64(time.Second))), 0)
	if err != nil {
		return nil, err
	}
	w := &window{
		elapsed:   time.Since(start),
		ops:       int64(len(ns)) * int64(e.env.sz.EngineBatchRows),
		attempted: int64(len(ns)) + failed,
		failed:    failed,
		info:      values{"batches": float64(len(ns))},
	}
	w.opP50MS, w.opP99MS, w.opSamples = latencyMS(ns)
	return w, nil
}

func (e *engine) settle() error {
	if err := e.store.Flush(); err != nil {
		return err
	}
	return e.store.CompactPending()
}

func (e *engine) stats() lsm.Stats { return e.store.Stats() }

// verify closes the store, reopens it, and checks that it holds exactly the
// acked rows: the count, and 1 000 sampled keys byte for byte.
func (e *engine) verify(*window) []check {
	if err := e.store.Close(); err != nil {
		return []check{passed("reopen", false, "close: %v", err)}
	}
	var err error
	if e.store, err = lsm.Open(e.opts); err != nil {
		e.store = nil
		return []check{passed("reopen", false, "reopen: %v", err)}
	}
	n := int64(e.env.sz.EngineBatchRows)
	sensors := int64(e.env.sz.EngineSensors)
	var want int64
	for _, b := range e.acked {
		want += b * n
	}
	res, err := e.store.AggregateTime(nil, nil, 0, math.MaxInt64, 0, lsm.AggCount)
	if err != nil {
		return []check{passed("reopen", false, "count: %v", err)}
	}
	var got int64
	for _, w := range res.Windows {
		got += w.Count
	}
	checks := []check{passed("rows-after-reopen", got == want, "reopened store holds %d rows, %d were acked", got, want)}

	bad, x := 0, mix(e.env.seed)
	const samples = 1_000
	for i := 0; i < samples; i++ {
		x = mix(x)
		w := int(x % engineWriters)
		if e.acked[w] == 0 {
			continue
		}
		slot := int64(mix(x) % uint64(e.acked[w]*n))
		k, v, err := e.rows.row(w, int(slot%sensors), slot/sensors)
		if err != nil {
			bad++
			continue
		}
		if stored, ok, err := e.store.Get(k); err != nil || !ok || !bytes.Equal(stored, v) {
			bad++
		}
	}
	return append(checks, passed("sampled-keys", bad == 0, "%d of %d sampled acked keys missing or different after reopen", bad, samples))
}

func (e *engine) close() error {
	if e.store == nil {
		return nil
	}
	return e.store.Close()
}

// engineDigest hashes the first batches of both writers for seed.
func engineDigest(seed uint64, sz sizes) string {
	h := sha256.New()
	e := &engine{env: runEnv{seed: seed, sz: sz}, rows: newRowMaker(seed)}
	for w := 0; w < engineWriters; w++ {
		for b := int64(0); b < 10; b++ {
			batch, err := e.batch(w, b, nil)
			if err != nil {
				return "error: " + err.Error()
			}
			for _, wr := range batch {
				h.Write(wr.Key)
				h.Write(wr.Value)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}
