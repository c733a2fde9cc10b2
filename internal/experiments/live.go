package experiments

import (
	"fmt"
	"os"

	"tpcxiot/internal/audit"
	"tpcxiot/internal/driver"
	"tpcxiot/internal/hbase"
	"tpcxiot/internal/lsm"
	"tpcxiot/internal/wal"
)

// Live runs the REAL benchmark end to end at laptop scale — actual WAL
// appends, memtable inserts, SSTable flushes, 3-way replication, scans —
// and prints the outcome. It verifies the kit's mechanics on the live
// engine; the simulated experiments reproduce the paper's scale.
func (s *Suite) Live() error {
	w := s.opts.Out
	fmt.Fprintf(w, "Live benchmark: real in-process mini-HBase cluster (laptop scale)\n")

	dir, err := os.MkdirTemp("", "tpcxiot-live-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	cluster, err := hbase.NewCluster(hbase.Config{
		Nodes:   3,
		DataDir: dir,
		Store:   lsm.Options{WALSync: wal.SyncNever, MemtableSize: 32 << 20},
	})
	if err != nil {
		return err
	}
	defer cluster.Close()

	const drivers = 2
	sut, err := driver.NewClusterSUT(cluster, drivers, 256<<10)
	if err != nil {
		return err
	}
	res, err := driver.Run(driver.Config{
		Drivers:            drivers,
		TotalKVPs:          20_000,
		ThreadsPerDriver:   4,
		Seed:               s.opts.Seed,
		SUT:                sut,
		MinWorkloadSeconds: 0.001, // laptop-scale: mechanics, not compliance
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  substations: %d, kvps per run: %d\n", drivers, res.TotalKVPs)
	for i, it := range res.Iterations {
		fmt.Fprintf(w, "  iteration %d: %8.1f IoTps over %.2fs (queries: %d, avg %.1fms)\n",
			i+1, it.Measured.IoTps(), it.Measured.Elapsed().Seconds(),
			it.Measured.QueryLatency.Count(), it.Measured.QueryLatency.Mean()/1e6)
	}
	fmt.Fprintf(w, "  reported metric: %.1f IoTps; mechanical checks (data, stored-rows) passed: %v\n",
		res.IoTps(), resMechanicalChecksPassed(res))
	fmt.Fprintln(w)
	return nil
}

// resMechanicalChecksPassed reports whether the checks a scaled-down run
// can meaningfully satisfy all passed. The rate floors and the
// repeatability bound are scale-dependent: second-long runs are dominated
// by runtime warm-up and GC variance, which is exactly why the
// specification demands 1800-second executions. The stored-rows check is
// exact at any scale: the workload's timestamp sequencer guarantees every
// generated key is unique even when a compressed run would land two
// readings of one sensor in the same millisecond.
func resMechanicalChecksPassed(res *driver.Result) bool {
	for _, v := range res.Verdicts() {
		for _, r := range v.Failed() {
			switch r.Rule {
			case audit.RulePerSensorRate, audit.RuleRowsPerQuery, audit.RuleRepeatability:
				continue // scale-dependent; not meaningful at laptop scale
			}
			return false
		}
	}
	return true
}
