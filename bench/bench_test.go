package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"tpcxiot/internal/telemetry"
)

// small is every workload at about 1/100 of its frozen size.
var small = sizes{
	SetupReps: 1,

	KitDrivers:    2,
	KitWarmKVPs:   400,
	KitClosedKVPS: 40_000,
	KitPacedRate:  2_000,
	KitWriteBuf:   16 << 10,

	SpillSubstations: 2,
	SpillSensors:     5,
	SpillReadings:    600,
	SpillCacheBytes:  64 << 10,
	SpillWindowMS:    300_000,
	SpillWarmQueries: 5,

	EngineMemtable:    256 << 10,
	EngineBatchRows:   64,
	EngineSensors:     100,
	EngineWarmBatches: 5,
}

// runSmall runs a half-second window; the paced kit gets a whole second so
// its 1 % rate check has more than a few milliseconds of slack.
func runSmall(t *testing.T, name string, trace bool) *result {
	t.Helper()
	seconds := 0.5
	if name == "kit.paced" {
		seconds = 1
	}
	def, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	res, err := runWorkload(def, runOptions{seed: 7, seconds: seconds, trace: trace, dir: t.TempDir(), sz: small})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Checks {
		if !c.Passed {
			t.Errorf("%s: check %s failed: %s", name, c.Name, c.Detail)
		}
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d", name, res.Correct, res.Attempted, res.Failed)
	}
	return res
}

// Every workload, scaled down, produces every end-to-end metric (none of them
// zero) and passes its output checks.
func TestWorkloadsReportEveryEndToEndMetric(t *testing.T) {
	for _, def := range workloads {
		res := runSmall(t, def.Name, false)
		line, err := json.Marshal(contractLine(res))
		if err != nil {
			t.Fatal(err)
		}
		var parsed struct {
			Metrics map[string]reported `json:"metrics"`
		}
		if err := json.Unmarshal(line, &parsed); err != nil {
			t.Fatal(err)
		}
		if len(parsed.Metrics) != len(endToEnd) {
			t.Errorf("%s: contract line has %d metrics, want %d", def.Name, len(parsed.Metrics), len(endToEnd))
		}
		for _, m := range endToEnd {
			if got := parsed.Metrics[m.Name]; got.Value <= 0 || got.Unit != m.Unit {
				t.Errorf("%s: %s = %+v, want a positive value in %s", def.Name, m.Name, got, m.Unit)
			}
		}
	}
}

// The traced run reports every per-layer metric; the layers a workload
// exercises are non-zero and the ones it bypasses are zero.
func TestTracedRunReportsLayers(t *testing.T) {
	for _, tc := range []struct {
		workload       string
		busy, bypassed []string
	}{
		{"kit.closed",
			[]string{"client.rows_per_flush", "rpc.mutate.self_us", "replication.quorum_acks", "lsm.apply_batch.self_us", "wal.append_us", "lsm.memtable_insert_us", "gen.kvps_per_s", "memtable.put_ns.w2", "sstable.get_ns", "wal.append_64x1k_us.sync_append", "traced.throughput"},
			[]string{"rpc.scan_next.self_us", "wal.fsyncs_per_batch"}},
		{"query.spill",
			[]string{"rpc.aggregate.self_us", "rpc.scan_next.self_us", "agg.fold_us", "agg.rows_folded_per_s", "sstable.cache_hit_rate"},
			[]string{"rpc.mutate.self_us", "wal.append_us", "lsm.memtable_insert_us", "replication.quorum_acks", "lsm.flushes"}},
		{"engine.durable",
			[]string{"wal.fsync_us", "wal.fsyncs_per_batch", "lsm.apply_batch.self_us", "lsm.flushes"},
			[]string{"rpc.mutate.self_us", "replication.quorum_acks", "client.rows_per_flush", "agg.fold_us"}},
	} {
		res := runSmall(t, tc.workload, true)
		for _, m := range perLayer {
			if _, ok := res.Layers[m.Name]; !ok {
				t.Errorf("%s: per-layer metric %s missing", tc.workload, m.Name)
			}
		}
		for _, name := range tc.busy {
			if res.Layers[name] <= 0 {
				t.Errorf("%s: %s = %v, want > 0 on a workload that exercises it", tc.workload, name, res.Layers[name])
			}
		}
		for _, name := range tc.bypassed {
			if res.Layers[name] != 0 {
				t.Errorf("%s: %s = %v, want 0 on a workload that bypasses it", tc.workload, name, res.Layers[name])
			}
		}
	}
}

func TestInputDigestFollowsSeed(t *testing.T) {
	for _, def := range workloads {
		a, again, b := def.digest(1, small), def.digest(1, small), def.digest(2, small)
		if strings.HasPrefix(a, "error") {
			t.Fatalf("%s: %s", def.Name, a)
		}
		if a != again {
			t.Errorf("%s: seed 1 digests %s then %s", def.Name, a, again)
		}
		if a == b {
			t.Errorf("%s: seeds 1 and 2 share digest %s", def.Name, a)
		}
	}
}

// A hand-built tree: root 100 us with two children that overlap (10-40 and
// 30-60, union 50 us) and one that outlives it (90-130, clipped to 10 us);
// the first child has a grandchild of 20 us.
func TestFoldSelfTime(t *testing.T) {
	us := func(n int64) int64 { return n * 1000 }
	sp := func(id, parent uint64, name string, start, dur int64) telemetry.SpanRecord {
		return telemetry.SpanRecord{TraceID: 1, SpanID: id, ParentID: parent, Name: name, StartNs: us(start), DurNs: us(dur)}
	}
	tr := &telemetry.Trace{Spans: []telemetry.SpanRecord{
		sp(4, 2, "grandchild", 15, 20),
		sp(2, 1, "child", 10, 30),
		sp(3, 1, "child", 30, 30),
		sp(5, 1, "straggler", 90, 40),
		sp(1, 0, "root", 0, 100),
	}}
	got := map[string]spanAgg{}
	for _, a := range foldTraces([]*telemetry.Trace{tr, tr}, time.Time{}) {
		got[a.Name] = a
	}
	for name, want := range map[string]struct {
		count          int64
		total, selfUS  float64
		shareOfRootDur float64
	}{
		"root":       {2, 100, 40, 0.40}, // 100 - (50 + 10)
		"child":      {4, 30, 20, 0.40},  // (30-20) and 30, over two spans each
		"grandchild": {2, 20, 20, 0.20},
		"straggler":  {2, 40, 40, 0.40},
	} {
		a := got[name]
		if a.Count != want.count || a.TotalUS != want.total || a.SelfUS != want.selfUS || a.SelfShare != want.shareOfRootDur {
			t.Errorf("%s: got count %d total %v self %v share %v, want %+v", name, a.Count, a.TotalUS, a.SelfUS, a.SelfShare, want)
		}
	}
}

func TestCompareFlagsRegression(t *testing.T) {
	doc := func(scale float64) *document {
		d := &document{}
		for _, w := range workloads {
			e := values{}
			for _, m := range endToEnd {
				e[m.Name] = 100
			}
			e["throughput"] *= scale
			d.Workloads = append(d.Workloads, workloadEntry{Name: w.Name, Run: &result{Correct: true, EndToEnd: e}})
		}
		return d
	}
	var out bytes.Buffer
	if compareDocuments(&out, doc(1), doc(1)) {
		t.Errorf("identical documents compare as regressed:\n%s", out.String())
	}
	out.Reset()
	if !compareDocuments(&out, doc(1), doc(0.7)) {
		t.Errorf("a 30%% throughput drop was not flagged:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "REGRESSED") {
		t.Errorf("comparison does not name the regressed row:\n%s", out.String())
	}
	out.Reset()
	if compareDocuments(&out, doc(1), doc(1.3)) {
		t.Errorf("a 30%% throughput gain compares as regressed:\n%s", out.String())
	}
	broken := doc(1)
	broken.Workloads[0].Run.Correct = false
	if !compareDocuments(&out, doc(1), broken) {
		t.Error("a failed output check in b was not flagged")
	}
}

// BENCHMARK.json repeats the tables in metrics.go and run.go; they must agree.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []metricDef                  `json:"end_to_end"`
		PerLayer  []metricDef                  `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.Name || spec.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json %+v, program {%s %s}", i, spec.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, the contract allows 200", w.Name, len(w.Why))
		}
	}
	same := func(kind string, a, b []metricDef) {
		if len(a) != len(b) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("%s %d: BENCHMARK.json %+v, program %+v", kind, i, a[i], b[i])
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}
