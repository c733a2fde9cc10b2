// auditor.go evaluates one iteration's execution rules from what its runs
// left behind: run metadata plus the measured run's telemetry interval
// series.
//
// The motivating rule is sustained performance: TPCx-IoT's IoTps is only
// reportable from a run whose throughput held steady, and a run-average
// number happily hides a mid-run collapse. The auditor therefore checks
// every complete telemetry interval against a tolerance band around the run
// mean, and joins each violating interval to the co-occurring signals the
// telemetry layer already collects (shed streaks, compaction debt, GC
// pauses, replication catch-up lag) so the report can say not just *that*
// an interval failed but *what else was happening* when it did.
package audit

import (
	"fmt"

	"tpcxiot/internal/metrics"
	"tpcxiot/internal/telemetry"
)

// Config parametrises the Auditor. The zero value selects the defaults.
type Config struct {
	// Tolerance is the sustained-performance band: a complete interval's
	// rate must satisfy |rate - mean| <= Tolerance * mean. Defaults to
	// 0.20; the band boundary itself passes.
	Tolerance float64
	// MinSeconds is the measured-duration floor. Defaults to
	// MinWorkloadSeconds; scaled-down experiments pass their disclosed
	// floor.
	MinSeconds float64
	// MinWarmupSeconds is the warmup-duration floor; the driver holds the
	// warmup to the same floor as the measured run, as the specification
	// does. 0 requires only that a warmup ran, for a harness whose warmup
	// is a fixed volume rather than a duration.
	MinWarmupSeconds float64
}

func (c Config) withDefaults() Config {
	if c.Tolerance == 0 {
		c.Tolerance = 0.20
	}
	if c.MinSeconds == 0 {
		c.MinSeconds = MinWorkloadSeconds
	}
	return c
}

// RunInfo is the evidence one iteration leaves behind: the metadata the
// run-level rules need plus the interval series the sustained-performance
// rule walks.
type RunInfo struct {
	// WarmupSeconds is the untimed warmup execution's elapsed time; 0 when
	// no warmup ran.
	WarmupSeconds float64
	// MeasuredSeconds is the measured run's elapsed time.
	MeasuredSeconds float64
	// KVPs is what the measured run ingested; ExpectedKVPs what it was
	// asked to.
	KVPs, ExpectedKVPs int64
	// TotalOps counts every operation the measured run completed; ShedOps
	// the ones deferred by load shedding after retry exhaustion.
	TotalOps, ShedOps int64
	// TargetRate is the paced intended rate in ops/s; 0 for an open-loop
	// run (recorded in the verdict so the artifact says how load was
	// offered).
	TargetRate float64
	// Series is the measured run's telemetry time series; nil when
	// telemetry was off, which skips the sustained-performance rule.
	Series *telemetry.Series
	// Substations is the run's driver-instance count (200 sensors each)
	// and RowsPerQuery the mean readings its dashboard queries aggregated.
	// The per-sensor-ingest-rate and readings-per-query rules are
	// evaluated when Substations is positive.
	Substations  int
	RowsPerQuery float64
	// StoredRows is the readings the storage tier holds after the measured
	// run, nil when the SUT cannot count them. The stored-rows rule expects
	// WarmupKVPs plus KVPs: warmup and measured run coexist until the next
	// cleanup.
	StoredRows *int64
	WarmupKVPs int64
}

// Auditor evaluates validity rules over a run's evidence.
type Auditor struct {
	cfg Config
}

// NewAuditor builds an auditor with cfg's thresholds (zero values select
// the defaults).
func NewAuditor(cfg Config) *Auditor {
	return &Auditor{cfg: cfg.withDefaults()}
}

// Evaluate runs every rule the evidence supports against one iteration and
// returns its verdict.
func (a *Auditor) Evaluate(run RunInfo) Verdict {
	v := Verdict{TargetRate: run.TargetRate}
	shedFrac := 0.0
	if run.TotalOps > 0 {
		shedFrac = float64(run.ShedOps) / float64(run.TotalOps)
	}
	v.Add(
		a.sustainedThroughput(run.Series, &v),
		duration(RuleWarmupDuration, "untimed warmup", run.WarmupSeconds, a.cfg.MinWarmupSeconds),
		duration(RuleMeasuredDuration, "measured run", run.MeasuredSeconds, a.cfg.MinSeconds),
		exact(RuleDataCheck, run.KVPs, run.ExpectedKVPs, "ingested %d of %d kvps"),
		RuleResult{
			Rule:     RuleShedBudget,
			Passed:   shedFrac <= ShedBudget,
			Observed: shedFrac,
			Bound:    ShedBudget,
			Detail: fmt.Sprintf("%.2f%% of ops deferred by shedding (budget %.0f%%)",
				shedFrac*100, ShedBudget*100),
		},
	)
	if run.Substations > 0 {
		var perSensor float64
		if run.MeasuredSeconds > 0 {
			perSensor = metrics.PerSensorIoTps(float64(run.KVPs)/run.MeasuredSeconds, run.Substations)
		}
		v.Add(
			atLeast(RulePerSensorRate, perSensor, MinPerSensorRate, "kvps/s per sensor"),
			atLeast(RuleRowsPerQuery, run.RowsPerQuery, MinRowsPerQuery, "readings aggregated per query"),
		)
	}
	if run.StoredRows != nil {
		v.Add(exact(RuleStoredRows, *run.StoredRows, run.WarmupKVPs+run.KVPs,
			"storage holds %d of %d ingested readings"))
	}
	return v
}

// EvaluatePartial evaluates only the interval-scoped rules against an
// in-flight series snapshot — the /audit endpoint and the SIGINT path,
// where the run-level evidence (final kvp counts, measured duration) does
// not exist yet. The verdict is marked Interrupted and is never Valid: an
// interrupted run has no reportable result, but its interval evidence is
// still auditable.
func (a *Auditor) EvaluatePartial(series *telemetry.Series, targetRate float64) Verdict {
	v := Verdict{Interrupted: true, TargetRate: targetRate}
	v.Add(a.sustainedThroughput(series, &v))
	return v
}

// sustainedThroughput walks the complete intervals and flags every one
// whose rate leaves the tolerance band around the mean, attaching the
// interval's co-occurring signals to each violation. The trailing partial
// interval is excluded (Series.IsComplete), so a short tail never reads as
// a collapse. With fewer than two complete intervals there is no deviation
// to measure and the rule passes vacuously, with the detail saying so.
func (a *Auditor) sustainedThroughput(series *telemetry.Series, v *Verdict) RuleResult {
	res := RuleResult{Rule: RuleSustainedThroughput, Bound: a.cfg.Tolerance}
	if series == nil {
		res.Passed = true
		res.Detail = "telemetry disabled; no interval series to evaluate"
		return res
	}

	type rated struct {
		idx  int
		rate float64
	}
	var rates []rated
	var sum float64
	for i, p := range series.Points {
		secs := p.Interval.Seconds()
		if secs <= 0 || !series.IsComplete(p) {
			continue
		}
		r := float64(p.TotalOps()) / secs
		rates = append(rates, rated{idx: i, rate: r})
		sum += r
	}
	v.Intervals = len(rates)
	if len(rates) < 2 {
		res.Passed = true
		res.Detail = fmt.Sprintf("%d complete interval(s); need >= 2 to measure deviation", len(rates))
		return res
	}
	mean := sum / float64(len(rates))
	v.MeanRate = mean
	res.Observed = mean
	lo := mean * (1 - a.cfg.Tolerance)
	hi := mean * (1 + a.cfg.Tolerance)
	for _, r := range rates {
		if r.rate >= lo && r.rate <= hi {
			continue
		}
		p := series.Points[r.idx]
		res.Violations = append(res.Violations, IntervalViolation{
			Interval:       r.idx,
			ElapsedSeconds: p.Elapsed.Seconds(),
			Observed:       r.rate,
			Lo:             lo,
			Hi:             hi,
			Signals:        IntervalSignals(p),
		})
	}
	res.Passed = len(res.Violations) == 0
	res.Detail = fmt.Sprintf("mean %.1f ops/s over %d intervals, band ±%.0f%% [%.1f, %.1f], %d violating",
		mean, len(rates), a.cfg.Tolerance*100, lo, hi, len(res.Violations))
	return res
}

// IntervalSignals names the telemetry signals active in one interval point
// — the co-occurring evidence the report's attribution table joins to each
// violation. Counters are interval deltas, gauges instantaneous; the
// catalogue covers the signals the engine already exports for the failure
// shapes the paper discusses: admission-control sheds, client retry storms,
// compaction debt, GC pauses, and replication catch-up lag.
func IntervalSignals(p telemetry.Point) []string {
	var out []string
	if n := pointCounter(p, "hbase.sheds"); n > 0 {
		out = append(out, fmt.Sprintf("sheds=+%d", n))
	}
	if n := pointCounter(p, "hbase.client_retries"); n > 0 {
		out = append(out, fmt.Sprintf("client_retries=+%d", n))
	}
	if n := pointCounter(p, "workload.shed_ops"); n > 0 {
		out = append(out, fmt.Sprintf("shed_ops=+%d", n))
	}
	if n := pointCounter(p, "lsm.stalls"); n > 0 {
		out = append(out, fmt.Sprintf("stalls=+%d", n))
	}
	if n := pointGauge(p, "lsm.compaction_debt_bytes"); n > 0 {
		out = append(out, fmt.Sprintf("compaction_debt=%.1fMiB", float64(n)/(1<<20)))
	}
	if n := pointGauge(p, "replication.catchup_depth"); n > 0 {
		out = append(out, fmt.Sprintf("catchup_depth=%d", n))
	}
	if n := pointGauge(p, "replication.quorum_lag"); n > 0 {
		out = append(out, fmt.Sprintf("quorum_lag=%d", n))
	}
	for _, o := range p.Ops {
		if o.Name == "gc.pause" && o.Count > 0 {
			out = append(out, fmt.Sprintf("gc_pauses=%d(p99=%.2fms)", o.Count, float64(o.P99)/1e6))
		}
	}
	return out
}

// pointCounter reads one counter delta from a point (0 when absent). A
// base name is the registry's roll-up of its tagged series.
func pointCounter(p telemetry.Point, name string) int64 {
	for _, c := range p.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// pointGauge reads one instantaneous gauge from a point (0 when absent).
func pointGauge(p telemetry.Point, name string) int64 {
	for _, g := range p.Gauges {
		if g.Name == name {
			return g.Value
		}
	}
	return 0
}
