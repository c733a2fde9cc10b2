package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"tpcxiot/internal/driver"
	"tpcxiot/internal/hbase"
	"tpcxiot/internal/kvp"
	"tpcxiot/internal/lsm"
	"tpcxiot/internal/memtable"
	"tpcxiot/internal/sstable"
	"tpcxiot/internal/wal"
)

// Probe sizes: fixed, small, and the same in every traced run.
const (
	probeGenKVPs     = 100_000
	probeRPCBatch    = 256
	probeRPCRounds   = 30
	probeWALRecords  = 64
	probeWALRounds   = 200
	probeMemtableN   = 20_000
	probeSSTableRows = 20_000
	probeSSTableGets = 5_000
)

// runProbes times single layers from outside through their public functions,
// for the layers the traced workloads cover with no span of their own. A
// probe that fails reports 0 and says why on stderr: probes never fail a run.
func runProbes(dir string, seed uint64) values {
	v := values{}
	rows := newRowMaker(seed)
	for _, p := range []struct {
		name string
		run  func(dir string, rows *rowMaker, v values) error
	}{
		{"gen", probeGen}, {"rpc", probeRPC}, {"wal", probeWAL},
		{"memtable", probeMemtable}, {"sstable", probeSSTable},
	} {
		sub := filepath.Join(dir, "probe-"+p.name)
		err := os.MkdirAll(sub, 0o755)
		if err == nil {
			err = p.run(sub, rows, v)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: probe %s: %v\n", p.name, err)
		}
		os.RemoveAll(sub)
	}
	return v
}

// probeGen drives the kit into a DB that stores nothing: the generator's own
// speed, the paper's Fig 8.
func probeGen(_ string, rows *rowMaker, v values) error {
	exec, err := driver.ExecuteWorkload(driver.Config{
		Drivers: frozen.KitDrivers, ThreadsPerDriver: 1, TotalKVPs: probeGenKVPs,
		Seed: rows.seed, SUT: sinkSUT{}, HealthInterval: -1,
	})
	if err != nil {
		return err
	}
	v["gen.kvps_per_s"] = exec.IoTps()
	v["gen.us_per_kvp"] = ratio(exec.Elapsed().Seconds()*1e6*float64(frozen.KitDrivers), float64(exec.KVPs))
	return nil
}

// probeRPC sends the same 256-row batch through an in-process client and a
// TCP client; the difference of the medians is what the wire costs a batch.
func probeRPC(dir string, rows *rowMaker, v values) error {
	cluster, err := hbase.NewCluster(hbase.Config{
		Nodes: 3, DataDir: dir, Store: lsm.Options{WALSync: wal.SyncOnRotate},
	})
	if err != nil {
		return err
	}
	defer cluster.Close()
	if _, err := cluster.CreateTable("probe", nil); err != nil {
		return err
	}
	if err := cluster.ServeTCP(); err != nil {
		return err
	}
	step := int64(0)
	flushUS := func(c *hbase.Client) (float64, error) {
		defer c.Close()
		var us []float64
		for round := 0; round < probeRPCRounds; round++ {
			for i := 0; i < probeRPCBatch; i++ {
				k, val, err := rows.row(0, i, step)
				if err != nil {
					return 0, err
				}
				if err := c.Put(k, val); err != nil {
					return 0, err
				}
			}
			step++
			start := time.Now()
			if err := c.FlushCommits(); err != nil {
				return 0, err
			}
			us = append(us, float64(time.Since(start).Nanoseconds())/1e3)
		}
		return median(us), nil
	}
	local, err := cluster.NewClient("probe", 64<<20)
	if err != nil {
		return err
	}
	inproc, err := flushUS(local)
	if err != nil {
		return err
	}
	remote, err := cluster.NewTCPClient("probe", 64<<20)
	if err != nil {
		return err
	}
	tcp, err := flushUS(remote)
	if err != nil {
		return err
	}
	v["rpc.overhead_us_per_batch"] = tcp - inproc
	return nil
}

// probeWAL appends 64 records of 1 KiB per call under each sync policy the
// workloads use.
func probeWAL(dir string, rows *rowMaker, v values) error {
	records := make([][]byte, probeWALRecords)
	for i := range records {
		records[i] = rows.padding[:kvp.PairSize]
	}
	for _, p := range []struct {
		name   string
		policy wal.SyncPolicy
	}{
		{"wal.append_64x1k_us.sync_append", wal.SyncOnAppend},
		{"wal.append_64x1k_us.sync_rotate", wal.SyncOnRotate},
	} {
		log, err := wal.Open(wal.Options{Dir: filepath.Join(dir, p.name), Sync: p.policy})
		if err != nil {
			return err
		}
		var us []float64
		for round := 0; round < probeWALRounds; round++ {
			start := time.Now()
			if err := log.Append(records...); err != nil {
				log.Close()
				return err
			}
			us = append(us, float64(time.Since(start).Nanoseconds())/1e3)
		}
		if err := log.Close(); err != nil {
			return err
		}
		v[p.name] = median(us)
	}
	return nil
}

// probeMemtable inserts 1 KiB rows with one writer and with two.
func probeMemtable(_ string, rows *rowMaker, v values) error {
	type pair struct{ k, v []byte }
	pairs := make([]pair, probeMemtableN)
	for i := range pairs {
		k, val, err := rows.row(i%2, i%200, int64(i/200))
		if err != nil {
			return err
		}
		pairs[i] = pair{k, val}
	}
	for writers := 1; writers <= 2; writers++ {
		m := memtable.New(rows.seed)
		var wg sync.WaitGroup
		start := time.Now()
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(pairs); i += writers {
					m.Put(pairs[i].k, pairs[i].v)
				}
			}(w)
		}
		wg.Wait()
		v[fmt.Sprintf("memtable.put_ns.w%d", writers)] = float64(time.Since(start).Nanoseconds()) / float64(len(pairs))
	}
	return nil
}

// probeSSTable writes one table of 1 KiB rows, then point-reads seeded random
// keys and iterates the whole table through a default-sized block cache.
func probeSSTable(dir string, rows *rowMaker, v values) error {
	path := filepath.Join(dir, "probe.sst")
	w, err := sstable.NewWriter(path, sstable.WriterOptions{TimestampOf: kvp.TimestampOf})
	if err != nil {
		return err
	}
	keys := make([][]byte, probeSSTableRows)
	for i := range keys {
		k, val, err := rows.row(0, 0, int64(i))
		if err != nil {
			w.Abort()
			return err
		}
		if err := w.Add(k, val); err != nil {
			w.Abort()
			return err
		}
		keys[i] = k
	}
	if err := w.Finish(); err != nil {
		return err
	}
	r, err := sstable.OpenWithCache(path, sstable.NewBlockCache(sstable.DefaultBlockCacheBytes))
	if err != nil {
		return err
	}
	defer r.Close()

	x := rows.seed
	start := time.Now()
	for i := 0; i < probeSSTableGets; i++ {
		x = mix(x)
		if _, err := r.Get(keys[x%uint64(len(keys))]); err != nil {
			return err
		}
	}
	v["sstable.get_ns"] = float64(time.Since(start).Nanoseconds()) / probeSSTableGets

	it := r.NewIterator()
	n := 0
	start = time.Now()
	for it.SeekToFirst(); it.Valid(); it.Next() {
		n++
	}
	if err := it.Error(); err != nil {
		return err
	}
	if n != len(keys) {
		return fmt.Errorf("iterated %d rows of %d", n, len(keys))
	}
	v["sstable.scan_rows_per_s"] = ratio(float64(n), time.Since(start).Seconds())
	return nil
}
