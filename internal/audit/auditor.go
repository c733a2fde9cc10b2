// auditor.go implements the live run-validity auditor: where audit.go holds
// the specification's static checklist items, the Auditor consumes what a
// run actually produced — the per-interval telemetry series plus run
// metadata — and evaluates named validity rules into a structured verdict.
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
	"strings"
	"time"

	"tpcxiot/internal/benchfmt"
	"tpcxiot/internal/telemetry"
)

// Rule names. Every verdict entry carries one of these, so consumers (the
// report's audit table, the CI gate, the /audit endpoint) match on names
// rather than positions.
const (
	// RuleSustainedThroughput: each complete telemetry interval's operation
	// rate must stay within the tolerance band around the run mean.
	RuleSustainedThroughput = "sustained-throughput"
	// RuleMinDuration: the measured run must last at least the configured
	// floor (the specification's 1 800 s for a publishable run).
	RuleMinDuration = "min-duration"
	// RuleWarmupExclusion: an untimed warmup execution must precede the
	// measured run, so the measurement starts from a warmed system.
	RuleWarmupExclusion = "warmup-exclusion"
	// RuleDataCheck: the measured run must ingest exactly the requested
	// kvps — TPCx-IoT is a fixed-workload benchmark.
	RuleDataCheck = "data-check"
	// RuleShedBudget: the fraction of operations deferred by load shedding
	// (after the client exhausted its retries) must stay under budget.
	RuleShedBudget = "shed-budget"
)

// Config parametrises the Auditor. The zero value selects the defaults.
type Config struct {
	// Tolerance is the sustained-performance band: a complete interval's
	// rate must satisfy |rate - mean| <= Tolerance * mean. Defaults to
	// 0.20; the band boundary itself passes.
	Tolerance float64
	// MinSeconds is the measured-duration floor. Defaults to
	// MinWorkloadSeconds; scaled-down experiments pass their disclosed
	// floor, exactly as DurationCheck does.
	MinSeconds float64
	// ShedBudget is the allowed shed-operation fraction. Defaults to 0.05;
	// the budget boundary itself passes.
	ShedBudget float64
}

func (c Config) withDefaults() Config {
	if c.Tolerance == 0 {
		c.Tolerance = 0.20
	}
	if c.MinSeconds == 0 {
		c.MinSeconds = MinWorkloadSeconds
	}
	if c.ShedBudget == 0 {
		c.ShedBudget = 0.05
	}
	return c
}

// RunInfo is the evidence one measured run leaves behind: the metadata the
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
}

// IntervalViolation pins one rule violation to one telemetry interval:
// which interval, what was observed, what band it broke, and the signals
// that co-occurred in the same interval.
type IntervalViolation struct {
	// Interval is the point's index within the measured run's series.
	Interval int `json:"interval"`
	// ElapsedSeconds is the interval's end relative to the run start.
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	// Observed is the interval's measured value (ops/s for the sustained
	// rule).
	Observed float64 `json:"observed"`
	// Lo and Hi bound the allowed band the observation fell outside of.
	Lo float64 `json:"lo"`
	Hi float64 `json:"hi"`
	// Signals names the co-occurring telemetry signals (shed counts,
	// compaction debt, GC pauses, catch-up lag) active in this interval.
	Signals []string `json:"signals,omitempty"`
}

// RuleResult is one named rule's outcome: the structured form of "rule,
// interval, observed, bound" the report and CI gate consume.
type RuleResult struct {
	Rule   string `json:"rule"`
	Passed bool   `json:"passed"`
	// Observed and Bound are the rule's headline numbers (run-level value
	// against its limit; for the sustained rule the mean rate against the
	// tolerance fraction).
	Observed float64 `json:"observed"`
	Bound    float64 `json:"bound"`
	// Detail is the human-readable one-liner.
	Detail string `json:"detail,omitempty"`
	// Violations pins interval-scoped failures; empty for run-level rules.
	Violations []IntervalViolation `json:"violations,omitempty"`
}

// Verdict is the auditor's structured output for one measured run.
type Verdict struct {
	// Valid reports whether every evaluated rule passed.
	Valid bool `json:"valid"`
	// Interrupted marks a partial verdict flushed on SIGINT: only the
	// interval-scoped rules were evaluated against the in-flight series.
	Interrupted bool `json:"interrupted,omitempty"`
	// TargetRate echoes the paced rate (0 = open loop).
	TargetRate float64 `json:"target_rate_ops_per_s,omitempty"`
	// MeanRate is the mean ops/s over the complete intervals.
	MeanRate float64 `json:"mean_interval_ops_per_s,omitempty"`
	// Intervals counts the complete intervals evaluated.
	Intervals int `json:"complete_intervals"`
	// Rules holds every evaluated rule, in evaluation order.
	Rules []RuleResult `json:"rules"`
}

// Failed returns the rules that did not pass.
func (v Verdict) Failed() []RuleResult {
	var out []RuleResult
	for _, r := range v.Rules {
		if !r.Passed {
			out = append(out, r)
		}
	}
	return out
}

// Rule returns the named rule's result and whether it was evaluated.
func (v Verdict) Rule(name string) (RuleResult, bool) {
	for _, r := range v.Rules {
		if r.Rule == name {
			return r, true
		}
	}
	return RuleResult{}, false
}

// Violations flattens every interval violation across rules.
func (v Verdict) Violations() []IntervalViolation {
	var out []IntervalViolation
	for _, r := range v.Rules {
		out = append(out, r.Violations...)
	}
	return out
}

// Check bridges the verdict into the run's audit checklist, so Result.Valid
// (and the CLI's exit code, and through it the CI gate) fold the live audit
// in with the specification's static checks.
func (v Verdict) Check() Check {
	detail := fmt.Sprintf("%d rules evaluated over %d complete intervals", len(v.Rules), v.Intervals)
	if failed := v.Failed(); len(failed) > 0 {
		names := make([]string, len(failed))
		for i, r := range failed {
			names[i] = r.Rule
		}
		detail = fmt.Sprintf("violated: %s (%d interval violations)",
			strings.Join(names, ", "), len(v.Violations()))
	}
	return Check{Name: "run-validity-audit", Passed: v.Valid, Detail: detail}
}

// Benchfmt renders the verdict in the repository's canonical benchmark
// result schema (results/BENCH_*.json): one result per rule with passed /
// observed / bound / violation-count metrics, so the CI artifact diffing
// and tooling that already understand benchfmt read audit verdicts too.
func (v Verdict) Benchfmt() *benchfmt.File {
	f := &benchfmt.File{
		Benchmark:   "RunValidityAudit",
		Description: "live run-validity audit verdict (per-rule pass, observed value, bound, interval violations)",
		Summary: map[string]any{
			"valid":              v.Valid,
			"interrupted":        v.Interrupted,
			"complete_intervals": v.Intervals,
		},
	}
	if v.TargetRate > 0 {
		f.Summary["target_rate_ops_per_s"] = v.TargetRate
	}
	for _, r := range v.Rules {
		passed := 0.0
		if r.Passed {
			passed = 1
		}
		f.Results = append(f.Results, benchfmt.Result{
			Variant: map[string]string{"rule": r.Rule},
			Metrics: map[string]float64{
				"passed":     passed,
				"observed":   r.Observed,
				"bound":      r.Bound,
				"violations": float64(len(r.Violations)),
			},
		})
	}
	return f
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

// Evaluate runs every rule against one measured run and returns the
// structured verdict.
func (a *Auditor) Evaluate(run RunInfo) Verdict {
	v := Verdict{TargetRate: run.TargetRate}
	v.Rules = append(v.Rules, a.sustainedThroughput(run.Series, &v))
	v.Rules = append(v.Rules, RuleResult{
		Rule:     RuleMinDuration,
		Passed:   run.MeasuredSeconds >= a.cfg.MinSeconds,
		Observed: run.MeasuredSeconds,
		Bound:    a.cfg.MinSeconds,
		Detail: fmt.Sprintf("measured run %.1fs (require >= %.0fs)",
			run.MeasuredSeconds, a.cfg.MinSeconds),
	})
	v.Rules = append(v.Rules, RuleResult{
		Rule:     RuleWarmupExclusion,
		Passed:   run.WarmupSeconds > 0,
		Observed: run.WarmupSeconds,
		Bound:    0,
		Detail: fmt.Sprintf("untimed warmup ran %.1fs before the measured window",
			run.WarmupSeconds),
	})
	v.Rules = append(v.Rules, RuleResult{
		Rule:     RuleDataCheck,
		Passed:   run.KVPs == run.ExpectedKVPs,
		Observed: float64(run.KVPs),
		Bound:    float64(run.ExpectedKVPs),
		Detail:   fmt.Sprintf("ingested %d of %d kvps", run.KVPs, run.ExpectedKVPs),
	})
	shedFrac := 0.0
	if run.TotalOps > 0 {
		shedFrac = float64(run.ShedOps) / float64(run.TotalOps)
	}
	v.Rules = append(v.Rules, RuleResult{
		Rule:     RuleShedBudget,
		Passed:   shedFrac <= a.cfg.ShedBudget,
		Observed: shedFrac,
		Bound:    a.cfg.ShedBudget,
		Detail: fmt.Sprintf("%.2f%% of ops deferred by shedding (budget %.0f%%)",
			shedFrac*100, a.cfg.ShedBudget*100),
	})
	v.Valid = allPassed(v.Rules)
	return v
}

// EvaluatePartial evaluates only the interval-scoped rules against an
// in-flight series snapshot — the SIGINT path, where the run-level metadata
// (final kvp counts, measured duration) does not exist yet. The verdict is
// marked Interrupted and is never Valid: an interrupted run has no
// reportable result, but its interval evidence is still auditable.
func (a *Auditor) EvaluatePartial(series *telemetry.Series, targetRate float64) Verdict {
	v := Verdict{Interrupted: true, TargetRate: targetRate}
	v.Rules = append(v.Rules, a.sustainedThroughput(series, &v))
	return v
}

// sustainedThroughput walks the complete intervals and flags every one
// whose rate leaves the tolerance band around the mean, attaching the
// interval's co-occurring signals to each violation. The trailing partial
// interval is excluded (Series.Complete), so a short tail never reads as a
// collapse. With fewer than two complete intervals there is no deviation to
// measure and the rule passes vacuously, with the detail saying so.
func (a *Auditor) sustainedThroughput(series *telemetry.Series, v *Verdict) RuleResult {
	res := RuleResult{Rule: RuleSustainedThroughput, Bound: a.cfg.Tolerance}
	if series == nil {
		res.Passed = true
		res.Detail = "telemetry disabled; no interval series to evaluate"
		return res
	}
	complete := series.Complete()
	v.Intervals = len(complete)

	type rated struct {
		idx  int
		rate float64
	}
	var rates []rated
	var sum float64
	for i, p := range series.Points {
		secs := p.Interval.Seconds()
		if secs <= 0 || !isComplete(p, series.Interval) {
			continue
		}
		r := float64(p.TotalOps()) / secs
		rates = append(rates, rated{idx: i, rate: r})
		sum += r
	}
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

func isComplete(p telemetry.Point, period time.Duration) bool {
	return p.Interval >= time.Duration(completeFraction*float64(period))
}

// completeFraction mirrors telemetry's complete-interval floor; kept as a
// named constant here so the rule's inclusion criterion is explicit at the
// point of use.
const completeFraction = 0.9

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

func allPassed(rules []RuleResult) bool {
	for _, r := range rules {
		if !r.Passed {
			return false
		}
	}
	return true
}
