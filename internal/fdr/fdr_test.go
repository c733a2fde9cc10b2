package fdr

import (
	"errors"
	"strings"
	"testing"
	"time"

	"tpcxiot/internal/audit"
	"tpcxiot/internal/driver"
	"tpcxiot/internal/metrics"
	"tpcxiot/internal/pricing"
)

func sampleResult() *driver.Result {
	start := time.Date(2017, time.June, 1, 0, 0, 0, 0, time.UTC)
	res := &driver.Result{
		Drivers:        32,
		TotalKVPs:      400_000_000,
		SUTDescription: "8-node HBase cluster",
		Prerequisites:  audit.Prerequisites(nil, 3),
		Compliant:      true,
	}
	res.Metric = metrics.Result{
		Runs: []metrics.Run{
			{KVPs: 400_000_000, Start: start, End: start.Add(2149 * time.Second)},
			{KVPs: 400_000_000, Start: start.Add(3 * time.Hour), End: start.Add(3*time.Hour + 2160*time.Second)},
		},
	}
	return res
}

func sampleReport() *Report {
	return &Report{
		Sponsor:          "Example Corp",
		SystemName:       "Example IoT Gateway G1",
		BenchmarkVersion: "1.0.3",
		Date:             time.Date(2017, time.July, 1, 0, 0, 0, 0, time.UTC),
		Tunables:         PaperTunables(),
		Measured:         ReferenceSystem(8),
		Priced:           ReferenceSystem(8),
		Result:           sampleResult(),
		Pricing:          pricing.ReferenceConfiguration(8),
		Audit: audit.Record{
			Method:   audit.PeerAudit,
			Auditors: []string{"member-a", "member-b", "member-c"},
			Date:     time.Date(2017, time.June, 20, 0, 0, 0, 0, time.UTC),
		},
	}
}

func TestValidateComplete(t *testing.T) {
	if err := sampleReport().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateMissingDisclosures(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Report)
		want   error
	}{
		{"sponsor", func(r *Report) { r.Sponsor = "" }, ErrNoSponsor},
		{"system", func(r *Report) { r.SystemName = "" }, ErrNoSystem},
		{"result", func(r *Report) { r.Result = nil }, ErrNoResult},
		{"diagram", func(r *Report) { r.Measured = SystemDescription{} }, ErrNoDiagram},
		{"pricing", func(r *Report) { r.Pricing = pricing.Configuration{} }, ErrNoPricing},
		{"audit", func(r *Report) { r.Audit = audit.Record{Method: audit.PeerAudit} }, ErrBadAudit},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := sampleReport()
			tc.mutate(r)
			if err := r.Validate(); !errors.Is(err, tc.want) {
				t.Fatalf("got %v, want %v", err, tc.want)
			}
		})
	}
}

func TestExecutiveSummaryContents(t *testing.T) {
	es := sampleReport().ExecutiveSummary()
	for _, want := range []string{
		"Executive Summary", "Example Corp", "IoTps", "Availability",
		"peer audit", "Total system cost",
	} {
		if !strings.Contains(es, want) {
			t.Fatalf("summary missing %q:\n%s", want, es)
		}
	}
	// Reported metric is the slower of the two equal-N runs: 400M/2160s.
	if !strings.Contains(es, "185185") {
		t.Fatalf("summary does not show the conservative IoTps:\n%s", es)
	}
}

func TestRenderFullFDR(t *testing.T) {
	out := sampleReport().Render()
	for _, want := range []string{
		"Changed customer-tunable parameters",
		"hbase.regionserver.handler.count",
		"Measured configuration",
		"Priced configuration",
		"Price sheet",
		"Benchmark report",
		"Audit",
		"member-b",
		"E5-2680 v4",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("FDR missing %q", want)
		}
	}
}

func TestDiagramShowsRequiredDetails(t *testing.T) {
	d := ReferenceSystem(4).Diagram()
	for _, want := range []string{"4 node(s)", "L2", "L3", "256 GB", "SSD", "10 Gbps", "HBase"} {
		if !strings.Contains(d, want) {
			t.Fatalf("diagram missing %q:\n%s", want, d)
		}
	}
}

func TestTunablesSortedInRender(t *testing.T) {
	out := sampleReport().Render()
	first := strings.Index(out, "hbase.client.write.buffer")
	second := strings.Index(out, "hbase.regionserver.handler.count")
	if first == -1 || second == -1 || first > second {
		t.Fatal("tunables not rendered in sorted order")
	}
}

func TestRenderDefaultsWhenEmpty(t *testing.T) {
	r := sampleReport()
	r.Tunables = nil
	out := r.Render()
	if !strings.Contains(out, "(all defaults)") {
		t.Fatal("empty tunables not rendered as defaults")
	}
	if !strings.Contains(out, "identical") {
		t.Fatal("missing differences default text")
	}
}

func TestPaperTunablesMatchPaper(t *testing.T) {
	tn := PaperTunables()
	if tn["hbase.regionserver.handler.count"] != "224" {
		t.Fatal("handler count differs from the paper's tuning")
	}
	if tn["hbase.hstore.blockingStoreFiles"] != "28" {
		t.Fatal("blocking store files differs from the paper's tuning")
	}
}
