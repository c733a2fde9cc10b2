package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sync"
	"time"

	"tpcxiot/internal/hbase"
	"tpcxiot/internal/kvp"
	"tpcxiot/internal/lsm"
	"tpcxiot/internal/wal"
	"tpcxiot/internal/workload"
)

const spillTable = "iot"

const allAggs = lsm.AggCount | lsm.AggMin | lsm.AggMax | lsm.AggSum | lsm.AggAvg

// spillWindows is how many windows one aggregate query asks for.
const spillWindows = 10

// spill is the read-only workload: a settled table many times the block
// cache, queried by two TCP clients in a closed loop. Four of five queries are
// pushed-down aggregates, every fifth streams the same range through a
// Scanner (the raw-row fallback path).
type spill struct {
	env     runEnv
	rows    *rowMaker
	cluster *hbase.Cluster
	clients []*hbase.Client
}

func openSpill(env runEnv) (system, error) {
	cluster, err := hbase.NewCluster(hbase.Config{
		Nodes:   3,
		DataDir: env.dir,
		Store: lsm.Options{
			WALSync:         wal.SyncOnRotate,
			BlockCacheBytes: env.sz.SpillCacheBytes,
		},
		Registry: env.reg,
		Tracer:   env.tracer,
	})
	if err != nil {
		return nil, err
	}
	s := &spill{env: env, rows: newRowMaker(env.seed), cluster: cluster}
	if err := s.preload(); err != nil {
		cluster.Close()
		return nil, fmt.Errorf("preload: %w", err)
	}
	if err := cluster.ServeTCP(); err != nil {
		cluster.Close()
		return nil, err
	}
	for c := 0; c < 2; c++ {
		cl, err := cluster.NewTCPClient(spillTable, 0)
		if err != nil {
			s.close()
			return nil, err
		}
		s.clients = append(s.clients, cl)
	}
	warm := &spillRun{s: s, maxQueries: env.sz.SpillWarmQueries, stream: len(s.clients)}
	if err := warm.run(time.Time{}); err != nil {
		s.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return s, nil
}

// preload writes every sensor's readings in time order, one writer per
// substation as real ingest does, then settles the table.
func (s *spill) preload() error {
	sz := s.env.sz
	names := workload.SubstationNames(sz.SpillSubstations)
	if _, err := s.cluster.CreateTable(spillTable, workload.SplitKeys(names)); err != nil {
		return err
	}
	errs := make([]error, sz.SpillSubstations)
	var wg sync.WaitGroup
	for sub := range errs {
		wg.Add(1)
		go func(sub int) {
			defer wg.Done()
			errs[sub] = func() error {
				c, err := s.cluster.NewClient(spillTable, 256<<10)
				if err != nil {
					return err
				}
				for step := int64(0); step < int64(sz.SpillReadings); step++ {
					for sensor := 0; sensor < sz.SpillSensors; sensor++ {
						k, v, err := s.rows.row(sub, sensor, step)
						if err != nil {
							return err
						}
						if err := c.Put(k, v); err != nil {
							return err
						}
					}
				}
				return c.Close()
			}()
		}(sub)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return settleCluster(s.cluster)
}

// spillQuery is one generated query: a sensor and a time span.
type spillQuery struct {
	sub, sensor int
	minTS       int64
	scan        bool
}

// spillQueries generates one query stream for seed.
type spillQueries struct {
	sz sizes
	x  uint64
	n  int
}

func newSpillQueries(seed uint64, stream int, sz sizes) *spillQueries {
	return &spillQueries{sz: sz, x: mix(seed ^ uint64(stream+1)<<56)}
}

func (g *spillQueries) next() spillQuery {
	draw := func(n int64) int64 {
		g.x = mix(g.x)
		return int64(g.x % uint64(n))
	}
	q := spillQuery{
		sub:    int(draw(int64(g.sz.SpillSubstations))),
		sensor: int(draw(int64(g.sz.SpillSensors))),
		minTS:  baseTS + draw(int64(g.sz.SpillReadings)*stepMS-g.sz.SpillWindowMS+1),
		scan:   g.n%5 == 4,
	}
	g.n++
	return q
}

// spillRun is one closed-loop pass of both clients, to a deadline or a query
// count.
type spillRun struct {
	s          *spill
	maxQueries int // per client; 0 = until the deadline
	stream     int // first query stream, so the warm-up does not pre-answer the window

	mu               sync.Mutex
	aggNS, scanNS    []int64
	attempted, wrong int64
	rowsFolded       int64
	firstWrong       string
}

func (r *spillRun) run(deadline time.Time) error {
	var wg sync.WaitGroup
	errs := make([]error, len(r.s.clients))
	for c := range r.s.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errs[c] = r.client(c, deadline)
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (r *spillRun) client(c int, deadline time.Time) error {
	gen := newSpillQueries(r.s.env.seed, r.stream+c, r.s.env.sz)
	var aggNS, scanNS []int64
	var attempted, wrong, folded int64
	var firstWrong string
	for n := 0; ; n++ {
		if r.maxQueries > 0 && n >= r.maxQueries {
			break
		}
		if r.maxQueries == 0 && !time.Now().Before(deadline) {
			break
		}
		q := gen.next()
		attempted++
		took, rows, diff, err := r.s.query(r.s.clients[c], q)
		if err != nil {
			return fmt.Errorf("client %d query %d: %w", c, n, err)
		}
		if q.scan {
			scanNS = append(scanNS, took)
		} else {
			aggNS = append(aggNS, took)
			folded += rows
		}
		if diff != "" {
			wrong++
			if firstWrong == "" {
				firstWrong = diff
			}
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.aggNS = append(r.aggNS, aggNS...)
	r.scanNS = append(r.scanNS, scanNS...)
	r.attempted += attempted
	r.wrong += wrong
	r.rowsFolded += folded
	if r.firstWrong == "" {
		r.firstWrong = firstWrong
	}
	return nil
}

// query runs q, timing only the client calls, and then compares the answer
// with the oracle; diff is empty when they agree.
func (s *spill) query(c *hbase.Client, q spillQuery) (tookNS, rows int64, diff string, err error) {
	span := s.env.sz.SpillWindowMS
	maxTS := q.minTS + span
	key := s.rows.key(q.sub, q.sensor, 0)
	lo, hi := kvp.RangeFor(key.Substation, key.Sensor, q.minTS, maxTS)
	// Steps whose timestamp falls in [minTS, maxTS).
	first := (q.minTS - baseTS + stepMS - 1) / stepMS
	last := (maxTS - baseTS + stepMS - 1) / stepMS // exclusive

	if q.scan {
		start := time.Now()
		got, err := drain(c, lo, hi)
		tookNS = time.Since(start).Nanoseconds()
		if err != nil {
			return 0, 0, "", err
		}
		if int64(len(got)) != last-first {
			return tookNS, int64(len(got)), fmt.Sprintf("scan %+v: %d rows, oracle has %d", q, len(got), last-first), nil
		}
		for i, row := range got {
			step := first + int64(i)
			v, err := kvp.ReadingOf(row.Value)
			if err != nil || v != s.rows.reading(q.sub, q.sensor, step) ||
				!bytes.Equal(row.Key, s.rows.key(q.sub, q.sensor, step).Encode()) {
				return tookNS, int64(len(got)), fmt.Sprintf("scan %+v: row %d is not the generated reading of step %d", q, i, step), nil
			}
		}
		return tookNS, int64(len(got)), "", nil
	}

	width := span / spillWindows
	start := time.Now()
	res, err := c.Aggregate(lo, hi, q.minTS, maxTS, width, allAggs)
	tookNS = time.Since(start).Nanoseconds()
	if err != nil {
		return 0, 0, "", err
	}
	want := s.oracle(q, first, last, width)
	if len(res.Windows) != len(want) {
		return tookNS, res.RowsFolded, fmt.Sprintf("aggregate %+v: %d windows, oracle has %d", q, len(res.Windows), len(want)), nil
	}
	for i, w := range res.Windows {
		o := want[i]
		if w.WindowStart != o.WindowStart || w.Count != o.Count || w.Min != o.Min || w.Max != o.Max ||
			w.Sum != o.Sum || !bytes.Equal(w.Series, o.Series) {
			return tookNS, res.RowsFolded, fmt.Sprintf("aggregate %+v window %d: got %+v, oracle %+v", q, i, w, o), nil
		}
	}
	return tookNS, res.RowsFolded, "", nil
}

// drain streams [lo, hi) through a Scanner, keeping the rows for the check.
func drain(c *hbase.Client, lo, hi []byte) ([]hbase.Row, error) {
	sc, err := c.NewScanner(lo, hi, 0)
	if err != nil {
		return nil, err
	}
	defer sc.Close()
	var rows []hbase.Row
	for {
		row, ok, err := sc.Next()
		if err != nil || !ok {
			return rows, err
		}
		rows = append(rows, row)
	}
}

// oracle folds the generated readings of steps [first, last) the way the
// engine must: per window, in time order, so sums are bit-equal.
func (s *spill) oracle(q spillQuery, first, last, width int64) []lsm.WindowAgg {
	key := s.rows.key(q.sub, q.sensor, 0)
	series := kvp.SensorPrefix(key.Substation, key.Sensor)
	var out []lsm.WindowAgg
	for step := first; step < last; step++ {
		ts := baseTS + step*stepMS
		start := q.minTS + (ts-q.minTS)/width*width
		if n := len(out); n == 0 || out[n-1].WindowStart != start {
			v := s.rows.reading(q.sub, q.sensor, step)
			out = append(out, lsm.WindowAgg{Series: series, WindowStart: start, Count: 1, Min: v, Max: v, Sum: v})
			continue
		}
		w := &out[len(out)-1]
		v := s.rows.reading(q.sub, q.sensor, step)
		w.Count++
		w.Min = min(w.Min, v)
		w.Max = max(w.Max, v)
		w.Sum += v
	}
	return out
}

func (s *spill) measure(seconds float64) (*window, error) {
	r := &spillRun{s: s}
	start := time.Now()
	if err := r.run(start.Add(time.Duration(seconds * float64(time.Second)))); err != nil {
		return nil, err
	}
	w := &window{
		elapsed:   time.Since(start),
		ops:       r.attempted,
		attempted: r.attempted,
		info:      values{},
	}
	w.opP50MS, w.opP99MS, w.opSamples = latencyMS(r.aggNS)
	scanP50, _, scans := latencyMS(r.scanNS)
	w.info["scan_p50_ms"] = scanP50
	w.info["scan_samples"] = float64(scans)
	w.info["rows_folded"] = float64(r.rowsFolded)
	detail := "every aggregate and scan equals the oracle"
	if r.wrong > 0 {
		detail = r.firstWrong
	}
	w.checks = append(w.checks, passed("oracle-equal", r.wrong == 0, "%d of %d answers wrong; %s", r.wrong, r.attempted, detail))
	return w, nil
}

func (s *spill) settle() error { return settleCluster(s.cluster) }

func (s *spill) stats() lsm.Stats { return s.cluster.Storage().Totals }

func (s *spill) verify(*window) []check {
	sz := s.env.sz
	want := int64(sz.SpillSubstations) * int64(sz.SpillSensors) * int64(sz.SpillReadings)
	got, err := countRows(s.cluster, spillTable)
	if err != nil {
		return []check{passed("stored-rows", false, "counting: %v", err)}
	}
	return []check{passed("stored-rows", got == want, "table holds %d readings, preload wrote %d", got, want)}
}

func (s *spill) close() error {
	for _, c := range s.clients {
		c.Close()
	}
	return s.cluster.Close()
}

// spillDigest hashes the first preloaded rows and queries for seed.
func spillDigest(seed uint64, sz sizes) string {
	h := sha256.New()
	rows := newRowMaker(seed)
	for step := int64(0); step < 20; step++ {
		for sensor := 0; sensor < sz.SpillSensors; sensor++ {
			k, v, err := rows.row(0, sensor, step)
			if err != nil {
				return "error: " + err.Error()
			}
			h.Write(k)
			h.Write(v)
		}
	}
	for c := 0; c < 2; c++ {
		gen := newSpillQueries(seed, c, sz)
		for i := 0; i < 100; i++ {
			q := gen.next()
			binary.Write(h, binary.LittleEndian, []int64{int64(q.sub), int64(q.sensor), q.minTS})
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}
