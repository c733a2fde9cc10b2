package driver

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tpcxiot/internal/audit"
	"tpcxiot/internal/hbase"
	"tpcxiot/internal/lsm"
	"tpcxiot/internal/replication"
	"tpcxiot/internal/telemetry"
	"tpcxiot/internal/wal"
)

// gatedStallApplier blocks a member's batch applies while the gate is up,
// modelling a transient stall (GC pause, disk hiccup) on that member. Applies
// entering during the stall wait for the gate to drop, then proceed.
type gatedStallApplier struct {
	inner replication.Applier
	gate  *atomic.Bool
}

func (g *gatedStallApplier) waitGate() {
	for g.gate.Load() {
		time.Sleep(2 * time.Millisecond)
	}
}

// ApplyBatch forwards the trace span with the batch: a wrapper that dropped
// it would erase every engine span under this member.
func (g *gatedStallApplier) ApplyBatch(parent telemetry.TSpan, b *lsm.Batch) error {
	g.waitGate()
	return g.inner.ApplyBatch(parent, b)
}

// pacedRunConfig builds the shared driver config for the paced audit tests:
// one iteration, 2 drivers x 2 threads, 12000 kvps paced at 3000 ops/s
// system-wide (a ~4 s measured run), sampled on 500 ms intervals. The band is
// widened to ±30%: under the race detector a buffer flush can straddle an
// interval boundary and displace its ops into the next sample, and that
// boundary noise must not trip the clean control run — while the injected
// stall still collapses whole intervals to near zero, far outside any band.
func pacedRunConfig(sut SUT, reg *telemetry.Registry, onTicker func(*telemetry.Ticker)) Config {
	return Config{
		Drivers:            2,
		TotalKVPs:          12_000,
		ThreadsPerDriver:   2,
		Seed:               11,
		SUT:                sut,
		Iterations:         1,
		MinWorkloadSeconds: 0.001,
		TargetRate:         3000,
		AuditTolerance:     0.30,
		Telemetry:          reg,
		TelemetryInterval:  500 * time.Millisecond,
		HealthInterval:     -1,
		OnTicker:           onTicker,
	}
}

// TestPacedStallDivergenceAndAudit is the acceptance scenario: a paced run
// whose primary replica stalls mid-measured-run must (a) report intended
// p99.9 at least 5x the service p99.9 in the same report — the divergence
// coordinated-omission correction exists to expose — and (b) be flagged by
// the auditor with the offending intervals joined to a co-occurring
// admission-control signal.
func TestPacedStallDivergenceAndAudit(t *testing.T) {
	if testing.Short() {
		t.Skip("live paced run")
	}
	reg := telemetry.NewRegistry()
	var stall atomic.Bool
	cluster, err := hbase.NewCluster(hbase.Config{
		Nodes:   3,
		DataDir: t.TempDir(),
		// Two handlers and a watermark of one against the four clients of a
		// region: a stalled primary blocks both handlers on two mutates,
		// a third queues, and the fourth client's sender is shed and
		// retried for the rest of the stall (nothing may be lost). Keeping a
		// second handler also lets the post-stall backlog drain in
		// parallel, so the slow *service* times stay confined to the puts
		// caught in the stall itself.
		HandlerCount:   2,
		ShedWatermark:  1,
		RetryMax:       100_000,
		RetryBaseDelay: 200 * time.Microsecond,
		RetryMaxDelay:  5 * time.Millisecond,
		Store:          lsm.Options{WALSync: wal.SyncNever, MemtableSize: 16 << 20},
		Registry:       reg,
		// memberIdx 0 is the primary; quorum acks require it, so gating the
		// primary blocks client acks — unlike a secondary stall, which the
		// quorum pipeline absorbs off the critical path.
		MemberWrapper: func(region string, idx int, app replication.Applier) replication.Applier {
			if idx != 0 {
				return app
			}
			return &gatedStallApplier{inner: app, gate: &stall}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	// Four threads per driver, each with a 32 KiB client buffer, seal a
	// buffer every ~85 ms at this rate, so every client of a region has a
	// mutate on the wire early in the stall: the stall always sheds. A put
	// blocks only once its client has a second buffer queued behind the
	// stuck one, so the sheds and retries are what mark the stalled
	// intervals, in which almost no op completes; small buffers keep the
	// post-stall drain, and with it the service tail, short.
	sut, err := NewClusterSUT(cluster, 2, 32<<10)
	if err != nil {
		t.Fatal(err)
	}

	// The stall is armed against the measured run (the second execution):
	// 1.2 s in, the primary freezes for 1.2 s.
	var executions atomic.Int32
	cfg := pacedRunConfig(sut, reg, func(*telemetry.Ticker) {
		if executions.Add(1) != 2 {
			return
		}
		go func() {
			time.Sleep(1200 * time.Millisecond)
			stall.Store(true)
			time.Sleep(1200 * time.Millisecond)
			stall.Store(false)
		}()
	})
	cfg.ThreadsPerDriver = 4
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	it := res.Iterations[0]

	// (a) Intended vs service divergence, both in the same execution.
	service := it.Measured.InsertLatency
	intended := it.Measured.IntendedInsert
	if intended.Count() == 0 {
		t.Fatal("paced run recorded no intended latency")
	}
	sp, ip := service.Percentile(99.9), intended.Percentile(99.9)
	if sp <= 0 || float64(ip) < 5*float64(sp) {
		t.Fatalf("intended p99.9 %.2fms vs service p99.9 %.2fms: want >= 5x divergence",
			float64(ip)/1e6, float64(sp)/1e6)
	}

	// (b) The auditor flags the stall intervals and names a co-occurring
	// signal. No write may be lost to the sheds: data-check stays green.
	verdict := it.Verdict
	if verdict.Valid {
		t.Fatal("stalled run audited as valid")
	}
	rule, ok := verdict.Rule(audit.RuleSustainedThroughput)
	if !ok || rule.Passed {
		t.Fatalf("sustained-throughput must fail: %+v", rule)
	}
	if len(rule.Violations) == 0 {
		t.Fatal("no interval violations recorded")
	}
	var signalled bool
	for _, v := range rule.Violations {
		for _, s := range v.Signals {
			if strings.HasPrefix(s, "sheds=") {
				signalled = true
			}
		}
	}
	if !signalled {
		t.Fatalf("no violation carries the stall's sheds: %+v", rule.Violations)
	}
	if dc, _ := verdict.Rule(audit.RuleDataCheck); !dc.Passed {
		t.Fatalf("sheds lost writes: %+v", dc)
	}

	// The report renders both: the CO-corrected tail and the audit section
	// with the attribution table.
	report := res.Report()
	for _, want := range []string{"intended (CO-corrected)", "Audit", "INVALID", "interval attribution:"} {
		if !strings.Contains(report, want) {
			t.Fatalf("report missing %q", want)
		}
	}
}

// TestPacedCleanRunAuditsValid is the control: the same paced run on an
// unperturbed cluster produces a clean verdict with no interval violations.
func TestPacedCleanRunAuditsValid(t *testing.T) {
	if testing.Short() {
		t.Skip("live paced run")
	}
	reg := telemetry.NewRegistry()
	cluster, err := hbase.NewCluster(hbase.Config{
		Nodes:    3,
		DataDir:  t.TempDir(),
		Store:    lsm.Options{WALSync: wal.SyncNever, MemtableSize: 16 << 20},
		Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	sut, err := NewClusterSUT(cluster, 2, 512<<10)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(pacedRunConfig(sut, reg, nil))
	if err != nil {
		t.Fatal(err)
	}
	// The specification's rate floors need full-scale ingest, so a 4 s run
	// fails those two and nothing else.
	verdict := res.Iterations[0].Verdict
	for _, r := range verdict.Failed() {
		if r.Rule != audit.RulePerSensorRate && r.Rule != audit.RuleRowsPerQuery {
			t.Fatalf("clean paced run failed %s: %+v", r.Rule, r)
		}
	}
	if n := len(verdict.Violations()); n != 0 {
		t.Fatalf("clean run has %d interval violations", n)
	}
	if verdict.Intervals < 2 {
		t.Fatalf("only %d complete intervals — sustained rule was vacuous", verdict.Intervals)
	}
	// Pacing held: the mean interval rate is near the target.
	if verdict.MeanRate < 2250 || verdict.MeanRate > 3750 {
		t.Fatalf("mean rate %.1f ops/s far from the 3000 target", verdict.MeanRate)
	}
	if !strings.Contains(res.Report(), "[PASS] "+audit.RuleSustainedThroughput) {
		t.Fatal("report missing the clean sustained-throughput verdict")
	}
}
