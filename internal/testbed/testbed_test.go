package testbed

import (
	"errors"
	"testing"

	"tpcxiot/internal/audit"
)

// execN runs a scaled-down execution against the default model. Stalls are
// disabled: scaled-down runs last tens of virtual seconds, so a single
// multi-second stall would dominate them, whereas at paper scale (30+
// minute runs) stalls only shape the latency tail. execStalls keeps them
// for tail tests.
func execN(t *testing.T, nodes, substations int, kvps int64) Execution {
	t.Helper()
	p := DefaultParams()
	p.StallMeanInterval = 0
	e, err := Execute(Config{Nodes: nodes, Substations: substations, TotalKVPs: kvps, Seed: 7, Params: &p})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// execStalls runs with the full stall model for latency-tail tests.
func execStalls(t *testing.T, nodes, substations int, kvps int64) Execution {
	t.Helper()
	e, err := Execute(Config{Nodes: nodes, Substations: substations, TotalKVPs: kvps, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestConfigValidation(t *testing.T) {
	cases := []Config{
		{Nodes: 0, Substations: 1, TotalKVPs: 100},
		{Nodes: 2, Substations: 0, TotalKVPs: 100},
		{Nodes: 2, Substations: 1, TotalKVPs: 0},
	}
	for i, c := range cases {
		if _, err := Execute(c); !errors.Is(err, ErrBadConfig) {
			t.Fatalf("case %d: %v", i, err)
		}
	}
	bad := DefaultParams()
	bad.GenPerThread = 0
	if _, err := Execute(Config{Nodes: 2, Substations: 1, TotalKVPs: 100, Params: &bad}); err == nil {
		t.Fatal("invalid params accepted")
	}
}

func TestExecutionCompletesExactVolume(t *testing.T) {
	const k = 500_000
	e := execN(t, 8, 4, k)
	if e.KVPs != k {
		t.Fatalf("ingested %d kvps, want %d", e.KVPs, k)
	}
	if e.Elapsed <= 0 {
		t.Fatal("non-positive elapsed")
	}
	if len(e.DriverElapsed) != 4 {
		t.Fatalf("driver elapsed entries: %d", len(e.DriverElapsed))
	}
	for i, d := range e.DriverElapsed {
		if d <= 0 {
			t.Fatalf("driver %d elapsed %v", i, d)
		}
	}
	if len(e.NodeUtilisation) != 8 {
		t.Fatalf("utilisation entries: %d", len(e.NodeUtilisation))
	}
	for i, u := range e.NodeUtilisation {
		if u < 0 || u > 1 {
			t.Fatalf("node %d utilisation %v", i, u)
		}
	}
}

func TestDeterministicForSeed(t *testing.T) {
	a := execN(t, 8, 4, 200_000)
	b := execN(t, 8, 4, 200_000)
	if a.Elapsed != b.Elapsed || a.Queries != b.Queries || a.Events != b.Events {
		t.Fatalf("same seed diverged: %v/%v, %d/%d, %d/%d",
			a.Elapsed, b.Elapsed, a.Queries, b.Queries, a.Events, b.Events)
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, _ := Execute(Config{Nodes: 8, Substations: 4, TotalKVPs: 200_000, Seed: 1})
	b, _ := Execute(Config{Nodes: 8, Substations: 4, TotalKVPs: 200_000, Seed: 2})
	if a.Elapsed == b.Elapsed {
		t.Fatal("different seeds produced identical elapsed times")
	}
}

func TestQueryRatio(t *testing.T) {
	// Five queries per 10 000 readings.
	const k = 1_000_000
	e := execN(t, 8, 2, k)
	want := int64(k / 2000)
	if e.Queries < want*95/100 || e.Queries > want {
		t.Fatalf("queries = %d, want ~%d", e.Queries, want)
	}
	if e.QueryLatency.Count() != e.Queries {
		t.Fatalf("latency count %d != queries %d", e.QueryLatency.Count(), e.Queries)
	}
}

// TestSubstationScalingShape asserts Figure 10's structure on 8 nodes:
// super-linear scaling at low substation counts, saturation by 32, and no
// meaningful growth from 32 to 48.
func TestSubstationScalingShape(t *testing.T) {
	iotps := map[int]float64{}
	for _, p := range []int{1, 2, 4, 8, 16, 32, 48} {
		iotps[p] = execN(t, 8, p, 2_000_000).IoTps()
	}
	if s2 := iotps[2] / iotps[1]; s2 < 2.2 {
		t.Fatalf("S_2 = %.2f, want super-linear (> 2.2; paper: 2.8)", s2)
	}
	if s4 := iotps[4] / iotps[1]; s4 < 4.5 {
		t.Fatalf("S_4 = %.2f, want super-linear (paper: 5.5)", s4)
	}
	// Monotone growth until 32.
	for _, pair := range [][2]int{{1, 2}, {2, 4}, {4, 8}, {8, 16}, {16, 32}} {
		if iotps[pair[1]] <= iotps[pair[0]] {
			t.Fatalf("throughput fell from P=%d (%.0f) to P=%d (%.0f)",
				pair[0], iotps[pair[0]], pair[1], iotps[pair[1]])
		}
	}
	// Saturation: 48 within ±10% of 32 (paper: 182.8k vs 186.1k).
	if r := iotps[48] / iotps[32]; r < 0.90 || r > 1.10 {
		t.Fatalf("P=48/P=32 ratio %.2f, want saturation (~1.0)", r)
	}
}

// TestPerSensorFloorCrossing asserts Figure 11: the 20 kvps/s/sensor
// execution rule passes at 32 substations and fails at 48.
func TestPerSensorFloorCrossing(t *testing.T) {
	e32 := execN(t, 8, 32, 2_000_000)
	e48 := execN(t, 8, 48, 2_000_000)
	if r := e32.PerSensorIoTps(32); r < audit.MinPerSensorRate {
		t.Fatalf("32 substations: %.1f kvps/s/sensor, paper passes the floor (29.1)", r)
	}
	if r := e48.PerSensorIoTps(48); r >= audit.MinPerSensorRate {
		t.Fatalf("48 substations: %.1f kvps/s/sensor, paper fails the floor (19.0)", r)
	}
	// Per-sensor rate peaks at low substation counts (paper: peak at 4).
	e1 := execN(t, 8, 1, 500_000)
	e4 := execN(t, 8, 4, 2_000_000)
	if e4.PerSensorIoTps(4) <= e1.PerSensorIoTps(1) {
		t.Fatal("per-sensor rate should rise from 1 to 4 substations (super-linear region)")
	}
}

// TestSingleSubstationInversion asserts Table III's inversion: with one
// substation, the SMALLER cluster is faster (2-node 21.9k > 4-node 15.7k >
// 8-node 9.8k in the paper).
func TestSingleSubstationInversion(t *testing.T) {
	i2 := execN(t, 2, 1, 300_000).IoTps()
	i4 := execN(t, 4, 1, 300_000).IoTps()
	i8 := execN(t, 8, 1, 300_000).IoTps()
	if !(i2 > i4 && i4 > i8) {
		t.Fatalf("inversion lost: 2-node %.0f, 4-node %.0f, 8-node %.0f", i2, i4, i8)
	}
	// Roughly the paper's 2.2x spread between 2 and 8 nodes.
	if ratio := i2 / i8; ratio < 1.6 || ratio > 3.0 {
		t.Fatalf("2-node/8-node single-substation ratio %.2f, paper ~2.2", ratio)
	}
}

// TestScaleOutCrossover asserts Figure 16: the 8-node cluster overtakes the
// 2-node cluster between 8 and 16 substations, and peak capacities order
// 2-node < 4-node < 8-node.
func TestScaleOutCrossover(t *testing.T) {
	at := func(nodes, subs int) float64 {
		return execN(t, nodes, subs, 2_000_000).IoTps()
	}
	if !(at(2, 8) > at(8, 8)*0.95) {
		t.Fatal("at 8 substations the 2-node config should still be competitive (paper: 105.9k vs 84.6k)")
	}
	if !(at(8, 16) > at(2, 16)) {
		t.Fatal("by 16 substations the 8-node config must lead (paper: 133.9k vs 114.5k)")
	}
	peak2, peak4, peak8 := at(2, 48), at(4, 48), at(8, 48)
	if !(peak2 < peak4 && peak4 < peak8) {
		t.Fatalf("peak ordering broken: %.0f, %.0f, %.0f", peak2, peak4, peak8)
	}
}

// TestIngestSkewGrowsWithSubstations asserts Table II: the fastest-vs-
// slowest substation ingest-time spread grows with substation count,
// reaching tens of percent at 48.
func TestIngestSkewGrowsWithSubstations(t *testing.T) {
	rel := func(subs int) float64 {
		e := execN(t, 8, subs, 2_000_000)
		min, max, _ := e.IngestSkew()
		if min <= 0 {
			t.Fatalf("non-positive min ingest time at %d substations", subs)
		}
		return float64(max-min) / float64(min)
	}
	small, large := rel(4), rel(48)
	if large < 0.40 {
		t.Fatalf("48-substation skew %.0f%%, paper ~81%%", large*100)
	}
	if large < 2*small {
		t.Fatalf("skew did not grow: %.0f%% at 4 vs %.0f%% at 48", small*100, large*100)
	}
}

// TestQueryLatencyKnee asserts Figure 13: average query latency is in the
// low tens of milliseconds at small substation counts and rises
// substantially near saturation.
func TestQueryLatencyKnee(t *testing.T) {
	low := execN(t, 8, 2, 2_000_000).QueryLatency.Mean() / 1e6
	high := execN(t, 8, 32, 4_000_000).QueryLatency.Mean() / 1e6
	if low < 5 || low > 30 {
		t.Fatalf("light-load query latency %.1fms, paper ~12-14ms", low)
	}
	if high < low*1.4 {
		t.Fatalf("no latency knee: %.1fms at 2 subs vs %.1fms at 32", low, high)
	}
}

// TestQueryLatencyTail asserts Figure 14's character on a long-enough run:
// maxima far above the mean (compaction stalls) and CV > 1.
func TestQueryLatencyTail(t *testing.T) {
	// A bigger K so the virtual run spans several stall intervals.
	e := execStalls(t, 8, 16, 20_000_000)
	q := e.QueryLatency
	if q.Count() == 0 {
		t.Fatal("no queries")
	}
	if maxMs := float64(q.Max()) / 1e6; maxMs < 500 {
		t.Fatalf("max query latency %.0fms; paper sees >1000ms stalls", maxMs)
	}
	if cv := q.CV(); cv <= 1 {
		t.Fatalf("CV = %.2f, paper reports CV > 1 for every run", cv)
	}
}

func TestRowsPerQueryTracksPerSensorRate(t *testing.T) {
	// Figure 12: aggregated rows per query follow the per-sensor rate.
	e4 := execN(t, 8, 4, 2_000_000)
	e48 := execN(t, 8, 48, 2_000_000)
	if e4.AvgRowsPerQuery <= e48.AvgRowsPerQuery {
		t.Fatalf("rows/query should fall with substation count: %.0f vs %.0f",
			e4.AvgRowsPerQuery, e48.AvgRowsPerQuery)
	}
	if e4.AvgRowsPerQuery <= 0 {
		t.Fatal("zero rows aggregated")
	}
}

func TestRunBenchmarkChecks(t *testing.T) {
	// Full-scale-ish volume so the 1800s duration rule is genuinely
	// evaluated by virtual time: 32 substations at ~160k IoTps needs
	// ~300M kvps for 1800s; use a smaller volume and expect the duration
	// check to FAIL while rate checks pass.
	res, err := RunBenchmark(Config{Nodes: 8, Substations: 8, TotalKVPs: 2_000_000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]audit.RuleResult{}
	for _, r := range res.Verdict.Rules {
		byName[r.Rule] = r
	}
	if c := byName[audit.RuleDataCheck]; !c.Passed {
		t.Fatalf("data check failed: %s", c.Detail)
	}
	if c := byName[audit.RulePerSensorRate]; !c.Passed {
		t.Fatalf("per-sensor rate check failed at 8 substations: %s", c.Detail)
	}
	if c, ok := byName[audit.RuleMeasuredDuration]; !ok || c.Passed {
		t.Fatal("short scaled run should fail the 1800s duration rule")
	}
	if res.Warmup.Elapsed == res.Measured.Elapsed {
		t.Fatal("warmup and measured runs should differ stochastically")
	}
}

func TestEventBudgetGuard(t *testing.T) {
	p := DefaultParams()
	p.MaxEvents = 100
	_, err := Execute(Config{Nodes: 8, Substations: 4, TotalKVPs: 1_000_000, Seed: 1, Params: &p})
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("tiny budget: %v", err)
	}
}

func TestNodeRateInterpolation(t *testing.T) {
	p := DefaultParams()
	r2, r4, r8 := p.nodeRate(2), p.nodeRate(4), p.nodeRate(8)
	if r2 != p.NodeWriteRate[2] || r4 != p.NodeWriteRate[4] || r8 != p.NodeWriteRate[8] {
		t.Fatal("calibrated sizes must resolve exactly")
	}
	r3 := p.nodeRate(3)
	if r3 >= r2 || r3 <= r4 {
		t.Fatalf("interpolated rate %v outside (%v, %v)", r3, r4, r2)
	}
	if p.nodeRate(16) != p.NodeWriteRate[8] {
		t.Fatal("extrapolation above range should clamp to the largest calibrated size")
	}
	if p.nodeRate(1) != p.NodeWriteRate[2] {
		t.Fatal("extrapolation below range should clamp to the smallest calibrated size")
	}
}

func TestHostGenerationFigure8(t *testing.T) {
	p := DefaultHostGenParams()
	one := DriverHostGeneration(1, p)
	if one.ThroughputKVPs < 110_000 || one.ThroughputKVPs > 130_000 {
		t.Fatalf("1 driver: %.0f kvps/s, paper ~120k", one.ThroughputKVPs)
	}
	if one.CPUUtilPct < 2 || one.CPUUtilPct > 8 {
		t.Fatalf("1 driver: %.1f%% CPU, paper ~4%%", one.CPUUtilPct)
	}
	d32 := DriverHostGeneration(32, p)
	if d32.ThroughputKVPs < 1_000_000 || d32.ThroughputKVPs > 1_200_000 {
		t.Fatalf("32 drivers: %.0f kvps/s, paper ~1.1M", d32.ThroughputKVPs)
	}
	if d32.CPUUtilPct < 65 || d32.CPUUtilPct > 85 {
		t.Fatalf("32 drivers: %.1f%% CPU, paper ~75%%", d32.CPUUtilPct)
	}
	d64 := DriverHostGeneration(64, p)
	if d64.ThroughputKVPs >= d32.ThroughputKVPs {
		t.Fatal("64 drivers must be slower than 32 (paper: 0.9M vs 1.1M)")
	}
	if d64.ThroughputKVPs < 800_000 || d64.ThroughputKVPs > 1_000_000 {
		t.Fatalf("64 drivers: %.0f kvps/s, paper ~0.9M", d64.ThroughputKVPs)
	}
	if d64.CPUUtilPct < 95 {
		t.Fatalf("64 drivers: %.1f%% CPU, paper ~100%%", d64.CPUUtilPct)
	}
	if d64.SystemPct < 12 || d64.SystemPct > 18 {
		t.Fatalf("64 drivers: %.1f%% system share, paper ~15%%", d64.SystemPct)
	}
	if d32.SystemPct > 6 {
		t.Fatalf("32 drivers: %.1f%% system share, paper ~5%%", d32.SystemPct)
	}
	// Monotone growth until 32.
	sweep := HostGenerationSweep(p)
	for i := 1; i < len(sweep)-1; i++ {
		if sweep[i].ThroughputKVPs <= sweep[i-1].ThroughputKVPs {
			t.Fatalf("throughput fell at %d drivers", sweep[i].Drivers)
		}
	}
}

func TestExpSampler(t *testing.T) {
	s := newSim(1)
	sum := 0.0
	const n = 20000
	for i := 0; i < n; i++ {
		v := s.exp(2.0)
		if v < 0 {
			t.Fatalf("negative exponential sample %v", v)
		}
		sum += v
	}
	if mean := sum / n; mean < 1.9 || mean > 2.1 {
		t.Fatalf("exponential mean %v, want ~2", mean)
	}
	if s.exp(0) != 0 || s.exp(-1) != 0 {
		t.Fatal("non-positive mean must yield 0")
	}
}
