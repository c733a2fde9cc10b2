// Package audit evaluates the TPCx-IoT execution rules (Sections III-B and
// IV-D) into structured verdicts.
//
// Before the first warmup, Prerequisites checks the kit files against their
// reference md5 checksums and the storage tier's three-way replication.
// After each measured run, Auditor.Evaluate checks what the iteration
// produced: at least 1 800 s of warmup and of measured execution, exactly
// the requested kvps ingested (and stored, when the SUT can count them), at
// least 20 kvps/s per sensor, a healthy number of readings aggregated per
// query, throughput sustained interval by interval, and a bounded share of
// shed operations. Repeatability compares the two iterations' measured
// runs. Each rule is evaluated once, into a RuleResult of a Verdict: the
// report, the /audit endpoint and the -audit-json artefact all render the
// same verdicts, and a run is valid when every verdict is. Results must
// additionally be audited — independently or by a peer review committee —
// before publication (Record).
package audit

import (
	"crypto/md5"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

// Specification thresholds.
const (
	// MinWorkloadSeconds is the minimum elapsed time for both the warmup
	// and the measured workload execution.
	MinWorkloadSeconds = 1800.0
	// MinPerSensorRate is the minimum average ingest rate per sensor in
	// kvps/s.
	MinPerSensorRate = 20.0
	// MinRowsPerQuery is the floor on the average number of readings
	// aggregated per query; the paper states a run is invalid below 200.
	MinRowsPerQuery = 200.0
	// RequiredReplication is the storage replication factor the
	// prerequisite check demands.
	RequiredReplication = 3
	// RepeatabilityTolerance is the allowed relative difference between the
	// two iterations' throughputs.
	RepeatabilityTolerance = 0.10
	// ShedBudget is the allowed share of operations deferred by load
	// shedding; the budget boundary itself passes.
	ShedBudget = 0.05
)

// Rule names. Every RuleResult carries one, so consumers (the report, the
// CI gate reading the artefact, tests) match on names rather than positions.
const (
	// RuleFileCheck: no non-changeable kit file differs from its reference
	// checksum.
	RuleFileCheck = "file-check"
	// RuleReplication: the storage tier keeps at least RequiredReplication
	// copies.
	RuleReplication = "data-replication-check"
	// RuleSustainedThroughput: each complete telemetry interval's operation
	// rate stays within the tolerance band around the run mean.
	RuleSustainedThroughput = "sustained-throughput"
	// RuleWarmupDuration: an untimed warmup execution preceded the measured
	// run and lasted at least its floor.
	RuleWarmupDuration = "warmup-duration"
	// RuleMeasuredDuration: the measured run lasted at least its floor (the
	// specification's 1 800 s for a publishable run).
	RuleMeasuredDuration = "measured-duration"
	// RuleDataCheck: the measured run ingested exactly the requested kvps —
	// TPCx-IoT is a fixed-workload benchmark, so a shortfall is lost data.
	RuleDataCheck = "data-check"
	// RuleShedBudget: the share of operations deferred by load shedding
	// (after the client exhausted its retries) stays under budget.
	RuleShedBudget = "shed-budget"
	// RulePerSensorRate: the average ingest rate per sensor reaches
	// MinPerSensorRate.
	RulePerSensorRate = "per-sensor-ingest-rate"
	// RuleRowsPerQuery: dashboard queries aggregate at least MinRowsPerQuery
	// readings on average.
	RuleRowsPerQuery = "readings-per-query"
	// RuleStoredRows: the storage tier holds every reading the iteration
	// ingested (warmup plus measured run) — the storage-level complement of
	// RuleDataCheck's client-side count.
	RuleStoredRows = "stored-rows"
	// RuleRepeatability: the two iterations' throughputs agree within the
	// tolerance; the TPC requires a repetition run to show repeatability.
	RuleRepeatability = "repeatability"
)

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

// RuleResult is one rule's outcome: the observed value against its bound,
// a human-readable detail, and for an interval-scoped rule the intervals
// that broke it.
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

// Verdict holds every rule evaluated over one scope of a run: its
// prerequisites, or one iteration.
type Verdict struct {
	// Iteration numbers the iteration from 1; 0 marks the prerequisites.
	Iteration int `json:"iteration"`
	// Valid reports whether every rule passed. An interrupted verdict is
	// never valid.
	Valid bool `json:"valid"`
	// Interrupted marks a partial verdict over an execution still in flight
	// (the /audit endpoint, a SIGINT flush): only the interval-scoped rules
	// were evaluated.
	Interrupted bool `json:"interrupted,omitempty"`
	// TargetRate echoes the paced rate (0 = open loop).
	TargetRate float64 `json:"target_rate_ops_per_s,omitempty"`
	// MeanRate is the mean ops/s over the complete intervals.
	MeanRate float64 `json:"mean_interval_ops_per_s,omitempty"`
	// Intervals counts the complete intervals evaluated.
	Intervals int `json:"complete_intervals,omitempty"`
	// Rules holds every evaluated rule, in evaluation order.
	Rules []RuleResult `json:"rules"`
}

// Add appends rule results to the verdict and recomputes Valid.
func (v *Verdict) Add(rules ...RuleResult) {
	v.Rules = append(v.Rules, rules...)
	v.Valid = !v.Interrupted && len(v.Failed()) == 0
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

// String renders one [PASS]/[FAIL] line per rule.
func (v Verdict) String() string {
	var b strings.Builder
	for _, r := range v.Rules {
		mark := "PASS"
		if !r.Passed {
			mark = "FAIL"
		}
		fmt.Fprintf(&b, "[%s] %-22s %s\n", mark, r.Rule, r.Detail)
	}
	return b.String()
}

// Prerequisites evaluates the checks that gate a run before its first
// warmup: the file check when a manifest is given, and the replication
// factor.
func Prerequisites(m Manifest, factor int) Verdict {
	var v Verdict
	if m != nil {
		v.Add(fileCheck(m))
	}
	v.Add(RuleResult{
		Rule:     RuleReplication,
		Passed:   factor >= RequiredReplication,
		Observed: float64(factor),
		Bound:    RequiredReplication,
		Detail:   fmt.Sprintf("replication factor %d (require >= %d)", factor, RequiredReplication),
	})
	return v
}

// Manifest maps kit file paths to their reference MD5 checksums (hex).
type Manifest map[string]string

// BuildManifest computes the manifest for the given files; used when
// producing a kit release.
func BuildManifest(paths []string) (Manifest, error) {
	m := make(Manifest, len(paths))
	for _, p := range paths {
		sum, err := fileMD5(p)
		if err != nil {
			return nil, err
		}
		m[p] = sum
	}
	return m, nil
}

func fileMD5(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", fmt.Errorf("audit: open %s: %w", path, err)
	}
	defer f.Close()
	h := md5.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", fmt.Errorf("audit: hash %s: %w", path, err)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// fileCheck verifies every manifest entry against the file on disk: the
// prerequisite that no non-changeable kit file was altered.
func fileCheck(m Manifest) RuleResult {
	paths := make([]string, 0, len(m))
	for p := range m {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	var bad []string
	for _, p := range paths {
		sum, err := fileMD5(p)
		if err != nil {
			bad = append(bad, fmt.Sprintf("%s (unreadable: %v)", p, err))
			continue
		}
		if sum != m[p] {
			bad = append(bad, fmt.Sprintf("%s (checksum mismatch)", p))
		}
	}
	r := RuleResult{Rule: RuleFileCheck, Passed: len(bad) == 0, Observed: float64(len(bad)),
		Detail: fmt.Sprintf("%d kit files match the reference checksums", len(m))}
	if len(bad) > 0 {
		r.Detail = fmt.Sprintf("%d of %d kit files altered or missing: %s",
			len(bad), len(m), strings.Join(bad, ", "))
	}
	return r
}

// duration verifies an execution ran, and for at least min seconds (pass
// MinWorkloadSeconds for a compliant run; scaled-down experiments pass a
// smaller floor and must disclose it).
func duration(rule, what string, seconds, min float64) RuleResult {
	require := fmt.Sprintf(">= %gs", min)
	if min <= 0 {
		require = "> 0s"
	}
	return RuleResult{
		Rule:     rule,
		Passed:   seconds > 0 && seconds >= min,
		Observed: seconds,
		Bound:    min,
		Detail:   fmt.Sprintf("%s ran %.1fs (require %s)", what, seconds, require),
	}
}

// atLeast verifies a run-level value reaches its floor.
func atLeast(rule string, observed, min float64, unit string) RuleResult {
	return RuleResult{
		Rule:     rule,
		Passed:   observed >= min,
		Observed: observed,
		Bound:    min,
		Detail:   fmt.Sprintf("%.1f %s (require >= %.0f)", observed, unit, min),
	}
}

// exact verifies a count equals its expectation; detail formats got, want.
func exact(rule string, got, want int64, detail string) RuleResult {
	return RuleResult{
		Rule:     rule,
		Passed:   got == want,
		Observed: float64(got),
		Bound:    float64(want),
		Detail:   fmt.Sprintf(detail, got, want),
	}
}

// Repeatability compares the two iterations' throughput; tolerance is the
// allowed relative difference (e.g. 0.10 for 10%).
func Repeatability(iotps1, iotps2, tolerance float64) RuleResult {
	r := RuleResult{Rule: RuleRepeatability, Bound: tolerance}
	if iotps1 <= 0 || iotps2 <= 0 {
		r.Detail = fmt.Sprintf("non-positive throughput: %.1f vs %.1f", iotps1, iotps2)
		return r
	}
	lo, hi := iotps1, iotps2
	if lo > hi {
		lo, hi = hi, lo
	}
	r.Observed = (hi - lo) / hi
	r.Passed = r.Observed <= tolerance
	r.Detail = fmt.Sprintf("iterations differ by %.1f%% (allow <= %.0f%%)", r.Observed*100, tolerance*100)
	return r
}

// Method is how a result is audited before publication.
type Method int

// Audit methods permitted by the specification.
const (
	// IndependentAudit is review by a third party with no interest in the
	// benchmark sponsor.
	IndependentAudit Method = iota
	// PeerAudit is review by a committee of three members from TPC
	// companies other than the sponsor.
	PeerAudit
)

// String names the method.
func (m Method) String() string {
	if m == PeerAudit {
		return "peer audit"
	}
	return "independent audit"
}

// Record documents who audited a result and when; the rules they reviewed
// are the result's verdicts.
type Record struct {
	Method   Method
	Auditors []string
	Date     time.Time
}

// Validate enforces the specification's composition rules: an independent
// audit needs at least one auditor; a peer audit needs a three-member
// committee.
func (r Record) Validate() error {
	switch r.Method {
	case IndependentAudit:
		if len(r.Auditors) < 1 {
			return fmt.Errorf("audit: independent audit requires an auditor")
		}
	case PeerAudit:
		if len(r.Auditors) != 3 {
			return fmt.Errorf("audit: peer audit requires exactly 3 committee members, have %d", len(r.Auditors))
		}
	default:
		return fmt.Errorf("audit: unknown method %d", r.Method)
	}
	return nil
}
