// Package driver implements the TPCx-IoT benchmark driver: the component
// that runs the complete benchmark against a System Under Test according to
// the execution rules of Section III-B and Figure 6.
//
// A benchmark run is two iterations. Each iteration executes the workload
// twice — an untimed warmup and the measured run — followed by a data check;
// a system cleanup separates the iterations. Before the first warmup the
// driver performs the prerequisite checks (kit file checksums, replication
// factor). The reported metric comes from the two measured runs per the
// metrics package.
package driver

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"tpcxiot/internal/audit"
	"tpcxiot/internal/histogram"
	"tpcxiot/internal/metrics"
	"tpcxiot/internal/telemetry"
	"tpcxiot/internal/workload"
	"tpcxiot/internal/ycsb"
)

// Sentinel errors.
var (
	ErrBadConfig    = errors.New("driver: invalid configuration")
	ErrPrerequisite = errors.New("driver: prerequisite check failed")
)

// RowCounter is an optional SUT capability: counting the readings actually
// persisted, so the data check can verify storage rather than trusting
// client-side counters alone.
type RowCounter interface {
	// CountRows returns the number of readings currently stored.
	CountRows() (int64, error)
}

// Quiescer is an optional SUT capability: draining the replication
// pipeline's catch-up queues so every member converges. The driver calls it
// after each workload execution, outside the timed window.
type Quiescer interface {
	Quiesce() error
}

// SUT abstracts the system under test so the same driver runs against the
// live mini-HBase cluster and against test doubles.
type SUT interface {
	// Binding returns the per-thread DB factory for driver instance d.
	Binding(d int) ycsb.Binding
	// ReplicationFactor reports the storage replication for the
	// prerequisite check.
	ReplicationFactor() int
	// Cleanup purges all ingested data and restarts the data management
	// system: the system cleanup between benchmark iterations.
	Cleanup() error
	// Describe names the SUT for reports.
	Describe() string
}

// Config parametrises a benchmark run. The two required knobs mirror the
// kit's command line: the number of driver instances (simulated power
// substations) and the total number of kvps.
type Config struct {
	// Drivers is P, the number of TPCx-IoT driver instances. Required.
	Drivers int
	// TotalKVPs is K, the total sensor readings to ingest across all
	// instances. Defaults to 1e9, the kit default.
	TotalKVPs int64
	// ThreadsPerDriver is the worker threads per instance. Defaults to 10.
	ThreadsPerDriver int
	// Seed makes data generation reproducible.
	Seed uint64
	// SUT is the system under test. Required.
	SUT SUT
	// Manifest, when non-nil, is verified by the file check.
	Manifest audit.Manifest
	// Iterations is the benchmark iteration count. Defaults to 2 as the
	// specification requires; tests may use 1.
	Iterations int
	// MinWorkloadSeconds overrides the 1 800 s execution-rule floor for
	// scaled-down (non-publishable) runs. Defaults to the specification
	// value. Scaled runs are marked non-compliant in the result.
	MinWorkloadSeconds float64
	// Now supplies the clock for timestamps; defaults to time.Now.
	Now func() time.Time
	// Logf, when set, receives progress lines.
	Logf func(format string, args ...any)
	// StatusInterval, when positive, logs a YCSB-style status line for the
	// first driver instance on that period via Logf.
	StatusInterval time.Duration
	// Telemetry, when non-nil, collects engine counters and operation
	// latencies cluster-wide: every workload execution samples it on
	// TelemetryInterval into a per-interval time series (attached to the
	// Execution), streams each point through Logf, and the final registry
	// summary is attached to the Result. The SUT must share the same
	// registry for engine counters to appear.
	Telemetry *telemetry.Registry
	// TelemetryInterval is the sampling period. Defaults to 10 s, the YCSB
	// status-line default.
	TelemetryInterval time.Duration
	// HealthInterval is the runtime health sampler's period: with Telemetry
	// set, the run samples runtime.ReadMemStats, goroutine count and RSS
	// into the registry (gauges "runtime.*", histogram "gc.pause") so the
	// interval series and report can correlate throughput dips with GC and
	// heap behaviour. 0 selects the telemetry default (1 s); negative
	// disables the sampler (benchmarks that want a silent process).
	HealthInterval time.Duration
	// Tracer, when non-nil, is the distributed-trace sampler shared with the
	// SUT's clients. The driver itself never starts spans; it drains the
	// tracer's slow-trace list into the Result so the report can render the
	// slowest operations' span trees.
	Tracer *telemetry.Tracer
	// OnTicker, when set, receives each execution's live telemetry ticker
	// right after it starts — the hook a signal handler uses to snapshot the
	// in-flight interval series on interrupt.
	OnTicker func(*telemetry.Ticker)
	// Pushdown is ignored: queries always fold server-side when the SUT's
	// binding implements workload.Aggregator. The field stays only because
	// the frozen bench/kit.go sets it (bench-pinned residue, DESIGN.md §6).
	Pushdown bool
	// Analytics adds the downsampling and group-by-window query templates to
	// the per-thread query rotation. They are reported separately and do not
	// perturb the Figure-12 dashboard validity statistics.
	Analytics bool
	// TargetRate, when positive, paces the run: the system-wide intended
	// operation rate in ops/s, split evenly across driver instances (and
	// within each instance across its threads into a fixed intended-start
	// schedule). Paced runs record a second, coordinated-omission-corrected
	// latency distribution per operation — measured from each op's scheduled
	// start instead of its actual start — so a backlog behind a stall shows
	// up as intended latency even while per-op service time stays flat.
	// 0 leaves the run open-loop (every thread issues as fast as the SUT
	// acknowledges).
	TargetRate float64
	// AuditTolerance is the live auditor's sustained-performance band: every
	// complete telemetry interval's throughput must stay within this
	// fraction of the measured run's mean interval rate. 0 selects the
	// auditor default (0.20).
	AuditTolerance float64
	// OnVerdict, when set, receives each verdict right after evaluation:
	// the prerequisites first, then each iteration's — the hook the CLI
	// uses to serve /audit and to flush the audit artefact of an
	// interrupted run.
	OnVerdict func(v audit.Verdict)

	// sequencer issues per-sensor monotonic timestamps shared by every
	// workload execution of this run, so a measured run never re-mints a
	// millisecond its warmup already used for the same sensor (generated keys
	// stay unique across executions and the stored-rows check is exact).
	sequencer *workload.Sequencer
}

func (c Config) withDefaults() (Config, error) {
	if c.SUT == nil {
		return c, fmt.Errorf("%w: SUT is required", ErrBadConfig)
	}
	if c.Drivers <= 0 {
		return c, fmt.Errorf("%w: Drivers must be positive", ErrBadConfig)
	}
	if c.TotalKVPs == 0 {
		c.TotalKVPs = 1_000_000_000
	}
	if c.TotalKVPs < int64(c.Drivers) {
		return c, fmt.Errorf("%w: TotalKVPs %d below driver count %d", ErrBadConfig, c.TotalKVPs, c.Drivers)
	}
	if c.ThreadsPerDriver <= 0 {
		c.ThreadsPerDriver = workload.DefaultThreads
	}
	if c.Iterations <= 0 {
		c.Iterations = 2
	}
	if c.MinWorkloadSeconds == 0 {
		c.MinWorkloadSeconds = audit.MinWorkloadSeconds
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	if c.OnVerdict == nil {
		c.OnVerdict = func(audit.Verdict) {}
	}
	if c.TelemetryInterval <= 0 {
		c.TelemetryInterval = 10 * time.Second
	}
	if c.sequencer == nil {
		c.sequencer = workload.NewSequencer()
	}
	return c, nil
}

// DriverOutcome is one driver instance's result within a workload execution.
type DriverOutcome struct {
	// Substation is the instance's substation key.
	Substation string
	// Share is the instance's kvp quota per Equation 3.
	Share int64
	// Elapsed is the instance's ingest time — the statistic behind
	// Table II's load-balance analysis.
	Elapsed time.Duration
	// Stats carries the instance's insert/query counters.
	Stats workload.InstanceStats
	// InsertLatency and QueryLatency are the instance's per-operation
	// latency distributions in nanoseconds.
	InsertLatency, QueryLatency histogram.Snapshot
	// IntendedInsert and IntendedQuery are the coordinated-omission-
	// corrected distributions (latency from each op's scheduled start).
	// Empty for open-loop runs.
	IntendedInsert, IntendedQuery histogram.Snapshot
}

// Execution is one workload execution (a warmup or a measured run).
type Execution struct {
	// Start and End are TS_start and TS_end.
	Start, End time.Time
	// KVPs is the total ingested.
	KVPs int64
	// Drivers holds each instance's outcome.
	Drivers []DriverOutcome
	// InsertLatency and QueryLatency merge all instances' distributions.
	InsertLatency, QueryLatency histogram.Snapshot
	// IntendedInsert and IntendedQuery merge the instances' coordinated-
	// omission-corrected distributions; empty for open-loop runs.
	IntendedInsert, IntendedQuery histogram.Snapshot
	// Series is the telemetry time series sampled during the execution;
	// nil when telemetry is disabled.
	Series *telemetry.Series
}

// TotalOps is the execution's completed operation count (inserts plus
// dashboard and analytic queries).
func (e Execution) TotalOps() int64 {
	var n int64
	for _, d := range e.Drivers {
		n += d.Stats.Inserted + d.Stats.Queries + d.Stats.AnalyticQueries
	}
	return n
}

// ShedOps is the execution's count of operations deferred by load shedding
// after retry exhaustion.
func (e Execution) ShedOps() int64 {
	var n int64
	for _, d := range e.Drivers {
		n += d.Stats.Shed
	}
	return n
}

// Elapsed is the execution's wall-clock duration.
func (e Execution) Elapsed() time.Duration { return e.End.Sub(e.Start) }

// IoTps is the execution's system-wide throughput.
func (e Execution) IoTps() float64 {
	return metrics.Run{KVPs: e.KVPs, Start: e.Start, End: e.End}.IoTps()
}

// IngestSkew returns the fastest, slowest and mean per-driver ingest times
// (Table II). Zero values when there are no drivers.
func (e Execution) IngestSkew() (min, max, avg time.Duration) {
	if len(e.Drivers) == 0 {
		return 0, 0, 0
	}
	var sum time.Duration
	min = e.Drivers[0].Elapsed
	for _, d := range e.Drivers {
		if d.Elapsed < min {
			min = d.Elapsed
		}
		if d.Elapsed > max {
			max = d.Elapsed
		}
		sum += d.Elapsed
	}
	return min, max, sum / time.Duration(len(e.Drivers))
}

// AvgRowsPerQuery is the system-wide mean readings aggregated per query
// over both 5-second intervals (Figure 12).
func (e Execution) AvgRowsPerQuery() float64 {
	var rows, queries int64
	for _, d := range e.Drivers {
		rows += d.Stats.RowsAggregated + d.Stats.HistoricalRows
		queries += d.Stats.Queries
	}
	if queries == 0 {
		return 0
	}
	return float64(rows) / float64(queries)
}

// Iteration is one benchmark iteration: warmup plus measured run.
type Iteration struct {
	Warmup   Execution
	Measured Execution
	// Verdict holds every execution rule evaluated over the iteration,
	// interval violations joined to co-occurring telemetry signals; the
	// last iteration of a multi-iteration run also carries repeatability.
	Verdict audit.Verdict
}

// Result is the outcome of a full benchmark run.
type Result struct {
	// Config echoes the run parameters.
	Drivers   int
	TotalKVPs int64
	// TargetRate echoes the paced intended rate (0 = open loop).
	TargetRate float64
	// SUTDescription names the system under test.
	SUTDescription string
	// Prerequisites holds the pre-run checks.
	Prerequisites audit.Verdict
	// Iterations holds each benchmark iteration.
	Iterations []Iteration
	// Metric aggregates the measured runs.
	Metric metrics.Result
	// Compliant is true when the run used the specification thresholds
	// (not a scaled-down MinWorkloadSeconds).
	Compliant bool
	// Telemetry is the final cumulative registry summary (counters, gauges
	// and span histograms across the whole run); nil when disabled.
	Telemetry *telemetry.Summary
	// SlowTraces holds the span trees of the slowest sampled operations
	// (those exceeding the tracer's slow-op threshold); nil when tracing is
	// disabled.
	SlowTraces []*telemetry.Trace
}

// Verdicts returns the run's audit in evaluation order: the prerequisites,
// then one verdict per iteration. The report, the /audit endpoint and the
// -audit-json artefact are renderings of this list.
func (r *Result) Verdicts() []audit.Verdict {
	out := []audit.Verdict{r.Prerequisites}
	for _, it := range r.Iterations {
		out = append(out, it.Verdict)
	}
	return out
}

// Valid reports whether every verdict is valid.
func (r *Result) Valid() bool {
	for _, v := range r.Verdicts() {
		if !v.Valid {
			return false
		}
	}
	return true
}

// IoTps returns the reported performance metric.
func (r *Result) IoTps() float64 {
	v, err := r.Metric.IoTps()
	if err != nil {
		return 0
	}
	return v
}

// Run executes the complete benchmark per Figure 6.
func Run(cfg Config) (*Result, error) {
	c, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	res := &Result{
		Drivers:        c.Drivers,
		TotalKVPs:      c.TotalKVPs,
		TargetRate:     c.TargetRate,
		SUTDescription: c.SUT.Describe(),
		Compliant:      c.MinWorkloadSeconds >= audit.MinWorkloadSeconds,
	}
	auditor := audit.NewAuditor(audit.Config{
		Tolerance:        c.AuditTolerance,
		MinSeconds:       c.MinWorkloadSeconds,
		MinWarmupSeconds: c.MinWorkloadSeconds,
	})

	// Runtime health sampling for the whole run; every execution's interval
	// series picks the runtime.* gauges up automatically.
	if c.Telemetry != nil && c.HealthInterval >= 0 {
		sampler := telemetry.StartHealthSampler(c.Telemetry, c.HealthInterval)
		defer sampler.Stop()
	}

	// Prerequisite checks: file check (when a manifest is supplied) and the
	// data replication check. A failure aborts the run.
	res.Prerequisites = audit.Prerequisites(c.Manifest, c.SUT.ReplicationFactor())
	c.OnVerdict(res.Prerequisites)
	if !res.Prerequisites.Valid {
		return res, fmt.Errorf("%w:\n%s", ErrPrerequisite, res.Prerequisites)
	}

	for it := 0; it < c.Iterations; it++ {
		c.Logf("iteration %d/%d: warmup run", it+1, c.Iterations)
		warmup, err := executeWorkload(c, uint64(it)*2+1)
		if err != nil {
			return res, fmt.Errorf("driver: iteration %d warmup: %w", it+1, err)
		}
		c.Logf("iteration %d/%d: measured run", it+1, c.Iterations)
		measured, err := executeWorkload(c, uint64(it)*2+2)
		if err != nil {
			return res, fmt.Errorf("driver: iteration %d measured: %w", it+1, err)
		}

		// When the SUT can count stored rows, the stored-rows rule checks the
		// storage tier, not only the client-side accounting.
		var stored *int64
		if counter, ok := c.SUT.(RowCounter); ok {
			n, err := counter.CountRows()
			if err != nil {
				return res, fmt.Errorf("driver: stored-row count: %w", err)
			}
			stored = &n
		}
		v := auditor.Evaluate(audit.RunInfo{
			WarmupSeconds:   warmup.Elapsed().Seconds(),
			MeasuredSeconds: measured.Elapsed().Seconds(),
			KVPs:            measured.KVPs,
			ExpectedKVPs:    c.TotalKVPs,
			TotalOps:        measured.TotalOps(),
			ShedOps:         measured.ShedOps(),
			TargetRate:      c.TargetRate,
			Series:          measured.Series,
			Substations:     c.Drivers,
			RowsPerQuery:    measured.AvgRowsPerQuery(),
			StoredRows:      stored,
			WarmupKVPs:      warmup.KVPs,
		})
		v.Iteration = it + 1
		res.Iterations = append(res.Iterations, Iteration{Warmup: warmup, Measured: measured, Verdict: v})
		res.Metric.Runs = append(res.Metric.Runs, metrics.Run{
			KVPs: measured.KVPs, Start: measured.Start, End: measured.End,
		})
		if it > 0 && it == c.Iterations-1 {
			res.Iterations[it].Verdict.Add(audit.Repeatability(
				res.Iterations[0].Measured.IoTps(),
				res.Iterations[1].Measured.IoTps(),
				audit.RepeatabilityTolerance))
		}
		c.OnVerdict(res.Iterations[it].Verdict)

		if it < c.Iterations-1 {
			c.Logf("iteration %d/%d: system cleanup", it+1, c.Iterations)
			if err := c.SUT.Cleanup(); err != nil {
				return res, fmt.Errorf("driver: cleanup after iteration %d: %w", it+1, err)
			}
		}
	}

	res.Telemetry = c.Telemetry.Summary()
	res.SlowTraces = c.Tracer.SlowTraces()
	return res, nil
}

// ExecuteWorkload runs a single workload execution (all driver instances
// concurrently) outside a full benchmark; the benchmark itself uses the
// same path. Exported for experiments that need one execution, such as
// warmup-free scaling probes.
func ExecuteWorkload(cfg Config) (Execution, error) {
	c, err := cfg.withDefaults()
	if err != nil {
		return Execution{}, err
	}
	return executeWorkload(c, 1)
}

func executeWorkload(c Config, salt uint64) (Execution, error) {
	type driverRun struct {
		outcome DriverOutcome
		err     error
	}
	runs := make([]driverRun, c.Drivers)
	var wg sync.WaitGroup

	// Telemetry ticker: one per execution, so each warmup/measured run gets
	// its own series while the registry stays cumulative underneath.
	var ticker *telemetry.Ticker
	if c.Telemetry != nil {
		ticker = telemetry.NewTicker(c.Telemetry, c.TelemetryInterval, func(p telemetry.Point) {
			c.Logf("telemetry %s", p)
		})
		ticker.Start()
		if c.OnTicker != nil {
			c.OnTicker(ticker)
		}
	}

	start := c.Now()
	for d := 0; d < c.Drivers; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			share := workload.KVPShare(c.TotalKVPs, c.Drivers, d+1)
			inst, err := workload.NewInstance(workload.InstanceConfig{
				Substation: workload.SubstationName(d),
				Readings:   share,
				Threads:    c.ThreadsPerDriver,
				Seed:       c.Seed ^ (uint64(d)+1)*0x2545f4914f6cdd1d ^ salt*0x9e3779b97f4a7c15,
				Now:        c.Now,
				Registry:   c.Telemetry,
				Analytics:  c.Analytics,
				Sequencer:  c.sequencer,
			})
			if err != nil {
				runs[d].err = err
				return
			}
			runCfg := ycsb.RunConfig{
				Threads:  c.ThreadsPerDriver,
				Registry: c.Telemetry,
				// The system-wide target splits evenly across instances; each
				// instance further splits it across threads into a fixed
				// intended-start schedule.
				TargetOpsPerSec: c.TargetRate / float64(c.Drivers),
			}
			if d == 0 && c.StatusInterval > 0 {
				runCfg.StatusInterval = c.StatusInterval
				runCfg.Status = func(st ycsb.Status) {
					c.Logf("driver 0 status: %s", st)
				}
			}
			rep, err := ycsb.Run(runCfg, c.SUT.Binding(d), inst)
			if err != nil {
				runs[d].err = err
				return
			}
			runs[d].outcome = DriverOutcome{
				Substation:     inst.Substation(),
				Share:          share,
				Elapsed:        rep.Elapsed(),
				Stats:          inst.Stats(),
				InsertLatency:  rep.Latencies[ycsb.OpInsert],
				QueryLatency:   rep.Latencies[ycsb.OpQuery],
				IntendedInsert: rep.Intended[ycsb.OpInsert],
				IntendedQuery:  rep.Intended[ycsb.OpQuery],
			}
		}(d)
	}
	wg.Wait()
	end := c.Now()
	// Writes acknowledge at quorum; let the SUT's stragglers converge before
	// the execution's counters and row counts are read, so per-member ack
	// accounting is deterministic. The drain is outside the timed window —
	// catch-up work is exactly what the quorum pipeline moved off the
	// critical path.
	if q, ok := c.SUT.(Quiescer); ok {
		if err := q.Quiesce(); err != nil {
			return Execution{Start: start, End: end}, fmt.Errorf("driver: quiesce: %w", err)
		}
	}

	exec := Execution{Start: start, End: end}
	if ticker != nil {
		exec.Series = ticker.Stop()
	}
	var inserts, queries, iInserts, iQueries []histogram.Snapshot
	for d, r := range runs {
		if r.err != nil {
			return exec, fmt.Errorf("driver instance %d: %w", d, r.err)
		}
		exec.Drivers = append(exec.Drivers, r.outcome)
		exec.KVPs += r.outcome.Stats.Inserted
		inserts = append(inserts, r.outcome.InsertLatency)
		queries = append(queries, r.outcome.QueryLatency)
		iInserts = append(iInserts, r.outcome.IntendedInsert)
		iQueries = append(iQueries, r.outcome.IntendedQuery)
	}
	exec.InsertLatency = histogram.MergeSnapshots(inserts...)
	exec.QueryLatency = histogram.MergeSnapshots(queries...)
	exec.IntendedInsert = histogram.MergeSnapshots(iInserts...)
	exec.IntendedQuery = histogram.MergeSnapshots(iQueries...)
	return exec, nil
}
