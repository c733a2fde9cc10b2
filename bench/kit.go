package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"time"

	"tpcxiot/internal/audit"
	"tpcxiot/internal/driver"
	"tpcxiot/internal/hbase"
	"tpcxiot/internal/histogram"
	"tpcxiot/internal/kvp"
	"tpcxiot/internal/lsm"
	"tpcxiot/internal/telemetry"
	"tpcxiot/internal/wal"
	"tpcxiot/internal/ycsb"
)

// kit is the TPCx-IoT kit as specified: driver -> workload/ycsb -> hbase TCP
// client -> 3 region servers, RF 3, quorum 2, pushdown queries, WAL synced on
// rotate, default 4 MiB memtable. Closed it runs a fixed amount of work as
// fast as acks allow; paced it offers a fixed rate on an intended schedule.
type kit struct {
	env     runEnv
	paced   bool
	cluster *hbase.Cluster
	sut     *driver.ClusterSUT
	cfg     driver.Config
	warm    driver.Execution
}

func openKit(env runEnv, paced bool) (system, error) {
	cluster, err := hbase.NewCluster(hbase.Config{
		Nodes:    3,
		DataDir:  env.dir,
		Store:    lsm.Options{WALSync: wal.SyncOnRotate},
		Registry: env.reg,
		Tracer:   env.tracer,
	})
	if err != nil {
		return nil, err
	}
	k := &kit{env: env, paced: paced, cluster: cluster}
	if k.sut, err = driver.NewClusterSUT(cluster, env.sz.KitDrivers, env.sz.KitWriteBuf); err != nil {
		cluster.Close()
		return nil, err
	}
	if err := k.sut.UseTCP(); err != nil {
		cluster.Close()
		return nil, err
	}
	k.cfg = driver.Config{
		Drivers:          env.sz.KitDrivers,
		ThreadsPerDriver: 1,
		Seed:             env.seed,
		SUT:              k.sut,
		Pushdown:         true,
		HealthInterval:   -1,
	}
	warm := k.cfg
	warm.TotalKVPs = env.sz.KitWarmKVPs
	if k.warm, err = driver.ExecuteWorkload(warm); err != nil {
		cluster.Close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return k, nil
}

func (k *kit) measure(seconds float64) (*window, error) {
	cfg := k.cfg
	// The measured execution draws from its own seed so it does not replay
	// the warm-up's readings.
	cfg.Seed = k.env.seed ^ 0x9e3779b97f4a7c15
	rate := k.env.sz.KitClosedKVPS
	if k.paced {
		rate = k.env.sz.KitPacedRate
		cfg.TargetRate = float64(rate)
		// The auditor's sustained-throughput rule needs an interval series;
		// this registry sees only the driver's own op histograms, so the
		// cluster stays untraced. The closed run is a capacity run whose
		// 1 s intervals are bursty by construction, and is audited on the
		// run-level rules alone.
		cfg.Telemetry = k.env.reg
		if cfg.Telemetry == nil {
			cfg.Telemetry = telemetry.NewRegistry()
		}
		cfg.TelemetryInterval = time.Second
	}
	cfg.TotalKVPs = int64(math.Round(float64(rate) * seconds))
	if cfg.TotalKVPs < int64(cfg.Drivers) {
		cfg.TotalKVPs = int64(cfg.Drivers)
	}
	exec, err := driver.ExecuteWorkload(cfg)
	if err != nil {
		return nil, err
	}

	w := &window{
		elapsed:   exec.Elapsed(),
		ops:       exec.KVPs,
		attempted: cfg.TotalKVPs + exec.QueryLatency.Count(),
		failed:    cfg.TotalKVPs - exec.KVPs + exec.ShedOps(),
		info:      values{},
	}
	ms := func(s histogram.Snapshot, p float64) float64 { return float64(s.Percentile(p)) / 1e6 }
	if k.paced {
		op := exec.IntendedInsert
		w.opP50MS, w.opP99MS, w.opSamples = ms(op, 50), ms(op, 99), op.Count()
		w.info["put_service_p99_ms"] = ms(exec.InsertLatency, 99)
		w.info["sched_lag_p99_ms"] = ms(op, 99) - ms(exec.InsertLatency, 99)
		w.info["late_op_ratio"] = shareAbove(op, int64(time.Millisecond))
	} else {
		// A closed-loop insert only waits when it fills the client's write
		// buffer and ships it: one batched mutate through RPC, quorum
		// replication and the engine. Those are the slowest 1/rowsPerFlush of
		// inserts; op is their latency.
		rowsPerFlush := float64(k.env.sz.KitWriteBuf) / kvp.PairSize
		w.opP50MS = ms(exec.InsertLatency, 100*(1-0.5/rowsPerFlush))
		w.opP99MS = ms(exec.InsertLatency, 100*(1-0.01/rowsPerFlush))
		w.opSamples = int64(float64(exec.InsertLatency.Count()) / rowsPerFlush)
	}
	w.info["query_p50_ms"] = ms(exec.QueryLatency, 50)
	w.info["query_p90_ms"] = ms(exec.QueryLatency, 90)
	w.info["query_samples"] = float64(exec.QueryLatency.Count())
	w.info["rows_per_query"] = exec.AvgRowsPerQuery()

	verdict := audit.NewAuditor(audit.Config{MinSeconds: seconds / 4}).Evaluate(audit.RunInfo{
		WarmupSeconds:   k.warm.Elapsed().Seconds(),
		MeasuredSeconds: exec.Elapsed().Seconds(),
		KVPs:            exec.KVPs,
		ExpectedKVPs:    cfg.TotalKVPs,
		TotalOps:        exec.TotalOps(),
		ShedOps:         exec.ShedOps(),
		TargetRate:      cfg.TargetRate,
		Series:          exec.Series,
	})
	detail := "VALID"
	for _, r := range verdict.Failed() {
		detail = r.Rule + ": " + r.Detail
	}
	w.checks = append(w.checks, passed("auditor-valid", verdict.Valid, "%s", detail))
	if k.paced {
		got := exec.IoTps()
		w.checks = append(w.checks, passed("paced-rate-held", math.Abs(got-float64(rate)) <= 0.01*float64(rate),
			"%.1f kvps/s against a target of %d (more than 1%% off means a growing backlog)", got, rate))
	}
	return w, nil
}

// shareAbove is the share of observations above limit, found by bisecting the
// snapshot's percentile function.
func shareAbove(s histogram.Snapshot, limit int64) float64 {
	if s.Count() == 0 || s.Max() <= limit {
		return 0
	}
	lo, hi := 0.0, 100.0
	for i := 0; i < 20; i++ {
		mid := (lo + hi) / 2
		if s.Percentile(mid) > limit {
			hi = mid
		} else {
			lo = mid
		}
	}
	return 1 - hi/100
}

func (k *kit) settle() error { return settleCluster(k.cluster) }

func (k *kit) stats() lsm.Stats { return k.cluster.Storage().Totals }

func (k *kit) verify(w *window) []check {
	want := k.warm.KVPs + w.ops
	got, err := countRows(k.cluster, "iot")
	if err != nil {
		return []check{passed("stored-rows", false, "counting: %v", err)}
	}
	return []check{passed("stored-rows", got == want, "table holds %d readings, warm-up + measured run acked %d", got, want)}
}

func (k *kit) close() error { return k.cluster.Close() }

// settleCluster drains the replication catch-up queues, flushes every
// replica and runs its pending compactions.
func settleCluster(cl *hbase.Cluster) error {
	if err := cl.Quiesce(); err != nil {
		return err
	}
	for _, srv := range cl.Servers() {
		for _, r := range srv.Regions() {
			if err := r.Flush(); err != nil {
				return err
			}
			if err := r.Store().CompactPending(); err != nil {
				return err
			}
		}
	}
	return nil
}

// countRows counts a table's readings with a count-only pushed-down
// aggregate, so the check holds no rows in memory.
func countRows(cl *hbase.Cluster, table string) (int64, error) {
	c, err := cl.NewClient(table, 0)
	if err != nil {
		return 0, err
	}
	defer c.Close()
	res, err := c.Aggregate(nil, nil, 0, math.MaxInt64, 0, lsm.AggCount)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, w := range res.Windows {
		n += w.Count
	}
	return n, nil
}

// kitDigest hashes the first readings the kit generates for seed, by running
// the driver against a hashing DB on a frozen clock.
func kitDigest(seed uint64, sz sizes) string {
	h := sha256.New()
	frozenAt := time.UnixMilli(1_700_000_000_000)
	_, err := driver.ExecuteWorkload(driver.Config{
		Drivers: 1, ThreadsPerDriver: 1, TotalKVPs: 2_000, Seed: seed,
		SUT: sinkSUT{h}, HealthInterval: -1,
		Now: func() time.Time { return frozenAt },
	})
	if err != nil {
		return "error: " + err.Error()
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// sinkSUT is a driver.SUT whose DB stores nothing: with a nil hash it is the
// no-op sink of the generator probe (the paper's Fig 8), with one it digests
// every insert.
type sinkSUT struct{ h hash.Hash }

func (s sinkSUT) Binding(int) ycsb.Binding {
	return func(int) (ycsb.DB, error) { return sinkDB(s), nil }
}
func (sinkSUT) ReplicationFactor() int { return audit.RequiredReplication }
func (sinkSUT) Cleanup() error         { return nil }
func (sinkSUT) Describe() string       { return "sink" }

type sinkDB struct{ h hash.Hash }

func (d sinkDB) Insert(key, value []byte) error {
	if d.h != nil {
		d.h.Write(key)
		d.h.Write(value)
	}
	return nil
}
func (sinkDB) Read([]byte) ([]byte, bool, error)          { return nil, false, nil }
func (sinkDB) Scan(_, _ []byte, _ int) ([]ycsb.KV, error) { return nil, nil }
func (sinkDB) ScanIter(_, _ []byte, _ int) (ycsb.RowIter, error) {
	return ycsb.SliceIter(nil), nil
}
func (sinkDB) Close() error { return nil }
