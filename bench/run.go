package main

import (
	"fmt"
	"os"
	"runtime/debug"
	"sort"
	"syscall"
	"time"

	"tpcxiot/internal/lsm"
	"tpcxiot/internal/sstable"
	"tpcxiot/internal/telemetry"
)

// sizes are the frozen workload sizes. Rates are per measured second, so a
// run of --seconds scales every workload the same way; the tests shrink them.
type sizes struct {
	SetupReps int `json:"setup_reps"` // set-ups timed per run; setup_s is their median

	KitDrivers    int   `json:"kit_drivers"`           // driver instances (substations), one thread each
	KitWarmKVPs   int64 `json:"kit_warm_kvps"`         // untimed warm-up execution
	KitClosedKVPS int64 `json:"kit_closed_kvps_per_s"` // fixed work of kit.closed per measured second
	KitPacedRate  int64 `json:"kit_paced_kvps_per_s"`  // open-loop rate of kit.paced
	KitWriteBuf   int64 `json:"kit_write_buffer_bytes"`

	SpillSubstations int   `json:"spill_substations"`
	SpillSensors     int   `json:"spill_sensors_per_substation"`
	SpillReadings    int   `json:"spill_readings_per_sensor"` // 1 s apart
	SpillCacheBytes  int64 `json:"spill_block_cache_bytes"`
	SpillWindowMS    int64 `json:"spill_query_span_ms"`
	SpillWarmQueries int   `json:"spill_warm_queries"`

	EngineMemtable    int64 `json:"engine_memtable_bytes"`
	EngineBatchRows   int   `json:"engine_batch_rows"`
	EngineSensors     int   `json:"engine_sensors_per_writer"`
	EngineWarmBatches int   `json:"engine_warm_batches"`
}

var frozen = sizes{
	SetupReps: 5,

	KitDrivers:    2,
	KitWarmKVPs:   40_000,
	KitClosedKVPS: 40_000,
	KitPacedRate:  10_000,
	KitWriteBuf:   256 << 10,

	SpillSubstations: 2,
	SpillSensors:     50,
	SpillReadings:    1_600,
	SpillCacheBytes:  sstable.DefaultBlockCacheBytes,
	SpillWindowMS:    300_000,
	SpillWarmQueries: 200,

	EngineMemtable:    8 << 20,
	EngineBatchRows:   64,
	EngineSensors:     400,
	EngineWarmBatches: 200,
}

// runEnv is what one set-up of a workload gets: where to put its files, the
// seed its inputs come from, and — in the traced run only — the registry and
// tracer it hands to the system by configuration.
type runEnv struct {
	dir    string
	seed   uint64
	sz     sizes
	reg    *telemetry.Registry
	tracer *telemetry.Tracer
}

// system is one workload's system under test, opened, preloaded and warm.
type system interface {
	// measure runs the measured window.
	measure(seconds float64) (*window, error)
	// settle brings storage to rest: replicas converged, memtables flushed,
	// pending compactions done.
	settle() error
	// stats sums the engine ledgers of every store in the system.
	stats() lsm.Stats
	// verify checks the system's outputs against what the window acked.
	verify(w *window) []check
	close() error
}

// window is what the measured window saw.
type window struct {
	elapsed   time.Duration
	ops       int64 // completed primary operations: kvps acked, or queries answered
	attempted int64
	failed    int64
	opP50MS   float64
	opP99MS   float64
	opSamples int64
	info      values // workload-specific numbers that never gate
	checks    []check
}

// check is one output check; a failed one fails the run.
type check struct {
	Name   string `json:"name"`
	Passed bool   `json:"passed"`
	Detail string `json:"detail"`
}

// workloadDef is one named workload. Op is what throughput counts and
// op_p50_ms times on it.
type workloadDef struct {
	Name string
	Why  string
	Op   string
	open func(env runEnv) (system, error)
	// digest hashes a prefix of the inputs generated for a seed.
	digest func(seed uint64, sz sizes) string
}

var workloads = []workloadDef{
	{
		Name:   "kit.closed",
		Why:    "capacity run of the TPCx-IoT kit over TCP, RF 3: generator and every write-path layer busy, both cores saturated",
		Op:     "throughput: acked kvps/s (IoTps); op: dashboard query beside saturating ingest",
		open:   func(env runEnv) (system, error) { return openKit(env, false) },
		digest: kitDigest,
	},
	{
		Name:   "kit.paced",
		Why:    "same stack, open loop at a quarter of capacity: latency is set by waiting, not CPU, so queueing fixes show here",
		Op:     "throughput: acked kvps/s, pinned to the rate; op: insert timed from its scheduled start",
		open:   func(env runEnv) (system, error) { return openKit(env, true) },
		digest: kitDigest,
	},
	{
		Name:   "query.spill",
		Why:    "read-only queries over settled data 10x the block cache: sstable, cache, pruning and agg.fold work; wal, memtable, replication idle",
		Op:     "throughput: queries/s; op: one 10-window Client.Aggregate over a random 300 s span",
		open:   openSpill,
		digest: spillDigest,
	},
	{
		Name:   "engine.durable",
		Why:    "one lsm.Store with fsync on every batch, no network or replication: wal group commit, memtable, flush and compaction dominate",
		Op:     "throughput: acked rows/s; op: one durable 64-row ApplyBatch",
		open:   openEngine,
		digest: engineDigest,
	},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// result is one run of one workload.
type result struct {
	Workload      string    `json:"workload"`
	Seed          uint64    `json:"seed"`
	Seconds       float64   `json:"seconds"`
	Traced        bool      `json:"traced"`
	InputDigest   string    `json:"input_digest"`
	Attempted     int64     `json:"attempted"`
	Failed        int64     `json:"failed"`
	FailRatio     float64   `json:"fail_ratio"`
	OpSamples     int64     `json:"op_samples"`
	EndToEnd      values    `json:"end_to_end"`
	Informational values    `json:"informational"`
	Layers        values    `json:"layers,omitempty"`
	Spans         []spanAgg `json:"spans,omitempty"`
	SetupRuns     []float64 `json:"setup_runs_s"`
	Checks        []check   `json:"checks"`
	Correct       bool      `json:"correct"`
}

type runOptions struct {
	seed    uint64
	seconds float64
	trace   bool
	dir     string // parent of the run's temp dirs
	sz      sizes
}

// runWorkload sets the workload up, runs the measured window, settles storage
// and checks the outputs.
func runWorkload(def workloadDef, o runOptions) (*result, error) {
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		return nil, err
	}
	res := &result{Workload: def.Name, Seed: o.seed, Seconds: o.seconds, Traced: o.trace, InputDigest: def.digest(o.seed, o.sz)}

	// Set the workload up SetupReps times and keep the last; setup_s is the
	// median, so one slow set-up does not move it.
	var sys system
	var env runEnv
	for rep := 0; rep < o.sz.SetupReps; rep++ {
		if sys != nil {
			if err := sys.close(); err != nil {
				return nil, fmt.Errorf("%s: closing set-up %d: %w", def.Name, rep, err)
			}
			removeData(env.dir)
		}
		dir, err := os.MkdirTemp(o.dir, "run-")
		if err != nil {
			return nil, err
		}
		env = runEnv{dir: dir, seed: o.seed, sz: o.sz}
		if o.trace {
			env.reg = telemetry.NewRegistry()
			env.tracer = telemetry.NewTracer(telemetry.TracerOptions{
				SampleEvery: 8, BufferSize: 1 << 17, SlowOpDisabled: true,
			})
		}
		start := time.Now()
		if sys, err = def.open(env); err != nil {
			removeData(dir)
			return nil, fmt.Errorf("%s: set-up: %w", def.Name, err)
		}
		res.SetupRuns = append(res.SetupRuns, time.Since(start).Seconds())
	}
	defer removeData(env.dir)
	defer sys.close()

	// Start every window from the same state: set-up's garbage returned to
	// the OS, its dirty pages written back, and the RSS high-water mark reset
	// so peak_rss_mb is the window's, not the preload's.
	debug.FreeOSMemory()
	syscall.Sync()
	resetPeakRSS()
	before := snap(sys, env)
	use0 := usage()
	windowStart := time.Now()
	win, err := sys.measure(o.seconds)
	if err != nil {
		return nil, fmt.Errorf("%s: measured window: %w", def.Name, err)
	}
	use := usage()
	after := snap(sys, env)

	settleStart := time.Now()
	if err := sys.settle(); err != nil {
		return nil, fmt.Errorf("%s: settle: %w", def.Name, err)
	}
	settleS := time.Since(settleStart).Seconds()
	final := sys.stats()

	res.Checks = append(win.checks, sys.verify(win)...)
	res.Correct = true
	for _, c := range res.Checks {
		res.Correct = res.Correct && c.Passed
	}
	res.Attempted, res.Failed = win.attempted, win.failed
	res.FailRatio = ratio(float64(win.failed), float64(win.attempted))
	res.OpSamples = win.opSamples
	res.EndToEnd = values{
		"throughput":    ratio(float64(win.ops), win.elapsed.Seconds()),
		"op_p50_ms":     win.opP50MS,
		"cpu_s_per_mop": ratio((use.user+use.sys-use0.user-use0.sys)*1e6, float64(win.ops)),
		"write_amp":     final.WriteAmplification(),
		"space_amp":     ratio(float64(final.TableBytes), float64(final.LogicalBytes)),
		"setup_s":       median(res.SetupRuns),
	}
	res.Informational = win.info
	res.Informational["op_p99_ms"] = win.opP99MS
	res.Informational["measured_s"] = win.elapsed.Seconds()
	res.Informational["settle_s"] = settleS
	res.Informational["peak_rss_mb"] = use.peakRSSMiB
	res.Informational["cpu_user_s_per_mop"] = ratio((use.user-use0.user)*1e6, float64(win.ops))
	if o.trace {
		res.Spans = foldTraces(env.tracer.Traces(), windowStart)
		res.Layers = layerMetrics(before, after, res.Spans, win, settleS)
		for k, v := range runProbes(env.dir, o.seed) {
			res.Layers[k] = v
		}
	}
	return res, nil
}

// snapshot is the engine ledger and registry state at one instant; the
// per-layer numbers are differences between two of them.
type snapshot struct {
	st  lsm.Stats
	sum *telemetry.Summary
}

func snap(sys system, env runEnv) snapshot {
	return snapshot{st: sys.stats(), sum: env.reg.Summary()}
}

// removeData deletes a run's data dir and waits for the filesystem to finish
// with it. On a disk mounted with online discard, freeing gigabytes queues
// TRIM work that would otherwise land in the next window — or the next run.
func removeData(dir string) {
	os.RemoveAll(dir)
	syscall.Sync()
}

// resources is the process's CPU time so far and its resident-set high-water
// mark (Linux reports ru_maxrss in KiB).
type resources struct{ user, sys, peakRSSMiB float64 }

func usage() resources {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return resources{}
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return resources{user: tv(ru.Utime), sys: tv(ru.Stime), peakRSSMiB: float64(ru.Maxrss) / 1024}
}

// resetPeakRSS asks Linux to restart the high-water mark from the current
// resident set. Where that is not possible the peak includes set-up.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// latencyMS is the p50 and p99, in ms, of nanosecond samples.
func latencyMS(ns []int64) (p50, p99 float64, samples int64) {
	ms := make([]float64, len(ns))
	for i, v := range ns {
		ms[i] = float64(v) / 1e6
	}
	sort.Float64s(ms)
	return quantile(ms, 0.5), quantile(ms, 0.99), int64(len(ms))
}

func passed(name string, ok bool, format string, args ...any) check {
	return check{Name: name, Passed: ok, Detail: fmt.Sprintf(format, args...)}
}
