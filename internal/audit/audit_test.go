package audit

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestVerdictValidFailedAndString(t *testing.T) {
	var v Verdict
	v.Add(RuleResult{Rule: "a", Passed: true}, RuleResult{Rule: "b", Passed: true})
	if !v.Valid {
		t.Fatal("all-pass verdict reported invalid")
	}
	v.Add(RuleResult{Rule: "c", Passed: false, Detail: "boom"})
	if v.Valid {
		t.Fatal("failing verdict reported valid")
	}
	failed := v.Failed()
	if len(failed) != 1 || failed[0].Rule != "c" {
		t.Fatalf("Failed() = %v", failed)
	}
	s := v.String()
	if !strings.Contains(s, "[PASS] a") || !strings.Contains(s, "[FAIL] c") || !strings.Contains(s, "boom") {
		t.Fatalf("report rendering: %q", s)
	}
	partial := Verdict{Interrupted: true}
	partial.Add(RuleResult{Rule: "a", Passed: true})
	if partial.Valid {
		t.Fatal("an interrupted verdict must never be valid")
	}
}

func TestFileCheck(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "driver.jar")
	b := filepath.Join(dir, "run.sh")
	os.WriteFile(a, []byte("kit contents A"), 0o644)
	os.WriteFile(b, []byte("kit contents B"), 0o644)

	m, err := BuildManifest([]string{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if c := fileCheck(m); !c.Passed {
		t.Fatalf("pristine kit failed: %s", c.Detail)
	}

	// Alter a file: the check must fail and name the file.
	os.WriteFile(b, []byte("tampered"), 0o644)
	c := fileCheck(m)
	if c.Passed {
		t.Fatal("tampered kit passed the file check")
	}
	if !strings.Contains(c.Detail, "run.sh") {
		t.Fatalf("detail does not name the altered file: %s", c.Detail)
	}
	if v := Prerequisites(m, RequiredReplication); v.Valid {
		t.Fatal("prerequisites valid despite a tampered kit")
	}

	// Remove a file: also a failure.
	os.Remove(a)
	if c := fileCheck(m); c.Passed {
		t.Fatal("missing kit file passed the file check")
	}
}

func TestBuildManifestMissingFile(t *testing.T) {
	if _, err := BuildManifest([]string{filepath.Join(t.TempDir(), "absent")}); err == nil {
		t.Fatal("manifest over missing file succeeded")
	}
}

func TestReplicationCheck(t *testing.T) {
	if v := Prerequisites(nil, 3); !v.Valid {
		t.Fatalf("factor 3 failed: %s", v)
	}
	if v := Prerequisites(nil, 4); !v.Valid {
		t.Fatal("factor 4 failed")
	}
	v := Prerequisites(nil, 2)
	if v.Valid {
		t.Fatal("factor 2 passed")
	}
	if _, ok := v.Rule(RuleFileCheck); ok {
		t.Fatal("file check evaluated without a manifest")
	}
}

func TestDurationCheck(t *testing.T) {
	if c := duration(RuleMeasuredDuration, "measured run", 1801, MinWorkloadSeconds); !c.Passed {
		t.Fatalf("1801s failed: %s", c.Detail)
	}
	if c := duration(RuleMeasuredDuration, "measured run", 1799, MinWorkloadSeconds); c.Passed {
		t.Fatal("1799s passed")
	}
	// Scaled-down bound for laptop experiments.
	if c := duration(RuleMeasuredDuration, "measured run", 3, 2); !c.Passed {
		t.Fatal("scaled bound not honoured")
	}
	// A zero floor still requires the execution to have run.
	if c := duration(RuleWarmupDuration, "untimed warmup", 0, 0); c.Passed {
		t.Fatal("a warmup that never ran passed")
	}
}

func TestPerSensorRateCheck(t *testing.T) {
	// Paper Table I: 29.1/sensor at 32 substations passes; 19.0 at 48 fails.
	if c := atLeast(RulePerSensorRate, 29.1, MinPerSensorRate, "kvps/s per sensor"); !c.Passed {
		t.Fatalf("29.1 failed: %s", c.Detail)
	}
	if c := atLeast(RulePerSensorRate, 19.0, MinPerSensorRate, "kvps/s per sensor"); c.Passed {
		t.Fatal("19.0 passed the 20 kvps/s floor")
	}
	if c := atLeast(RulePerSensorRate, 20.0, MinPerSensorRate, "kvps/s per sensor"); !c.Passed {
		t.Fatal("exact threshold should pass")
	}
}

func TestQueryAggregateCheck(t *testing.T) {
	if c := atLeast(RuleRowsPerQuery, 250, MinRowsPerQuery, "readings"); !c.Passed {
		t.Fatal("250 rows/query failed")
	}
	if c := atLeast(RuleRowsPerQuery, 150, MinRowsPerQuery, "readings"); c.Passed {
		t.Fatal("150 rows/query passed the 200 floor")
	}
}

func TestDataCheck(t *testing.T) {
	const detail = "ingested %d of %d kvps"
	if c := exact(RuleDataCheck, 1_000_000, 1_000_000, detail); !c.Passed {
		t.Fatal("exact ingestion failed")
	}
	if c := exact(RuleDataCheck, 999_999, 1_000_000, detail); c.Passed {
		t.Fatal("shortfall passed the data check")
	}
	if c := exact(RuleDataCheck, 1_000_001, 1_000_000, detail); c.Passed {
		t.Fatal("overrun passed the data check")
	}
}

func TestRepeatabilityCheck(t *testing.T) {
	if c := Repeatability(100_000, 103_000, 0.10); !c.Passed {
		t.Fatalf("3%% difference failed: %s", c.Detail)
	}
	if c := Repeatability(100_000, 80_000, 0.10); c.Passed {
		t.Fatal("20% difference passed a 10% tolerance")
	}
	if c := Repeatability(0, 100, 0.10); c.Passed {
		t.Fatal("zero throughput passed")
	}
	// Symmetry.
	a := Repeatability(90, 100, 0.15)
	b := Repeatability(100, 90, 0.15)
	if a.Passed != b.Passed {
		t.Fatal("repeatability check is order-dependent")
	}
}

func TestAuditRecordValidate(t *testing.T) {
	good := Record{Method: IndependentAudit, Auditors: []string{"auditor-1"}, Date: time.Now()}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Record{Method: IndependentAudit}).Validate(); err == nil {
		t.Fatal("independent audit without auditor accepted")
	}
	peer := Record{Method: PeerAudit, Auditors: []string{"a", "b", "c"}}
	if err := peer.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Record{Method: PeerAudit, Auditors: []string{"a", "b"}}).Validate(); err == nil {
		t.Fatal("two-member peer committee accepted")
	}
	if err := (Record{Method: Method(9)}).Validate(); err == nil {
		t.Fatal("unknown method accepted")
	}
}

func TestMethodString(t *testing.T) {
	if IndependentAudit.String() != "independent audit" || PeerAudit.String() != "peer audit" {
		t.Fatal("method names wrong")
	}
}
