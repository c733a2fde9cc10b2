// Command tpcxiot-report produces the Full Disclosure Report and Executive
// Summary for a TPCx-IoT result: it runs the benchmark on the simulated
// paper-scale testbed, prices the reference configuration, applies the
// audit checklist, and renders the disclosures.
//
// It is also the benchmark-results toolchain:
//
//	-benchjson converts `go test -bench` output into the canonical
//	results/BENCH_*.json schema (package benchfmt), and
//	-benchdiff compares two canonical files metric-by-metric, exiting
//	nonzero when a directional metric regressed beyond the threshold —
//	the CI perf gate.
//
// Usage:
//
//	tpcxiot-report -nodes 8 -substations 32 -sponsor "Example Corp"
//	tpcxiot-report -es                       # executive summary only
//	go test -bench=. | tpcxiot-report -benchjson - -bench-out out.json
//	tpcxiot-report -benchdiff -threshold 2.0 baseline.json new.json
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"tpcxiot/internal/audit"
	"tpcxiot/internal/experiments"
	"tpcxiot/internal/fdr"
	"tpcxiot/internal/pricing"
)

func main() {
	var (
		nodes       = flag.Int("nodes", 8, "cluster size (2, 4 or 8)")
		substations = flag.Int("substations", 32, "driver instances")
		kvps        = flag.Int64("kvps", 400_000_000, "total kvps per workload execution")
		sponsor     = flag.String("sponsor", "Example Corp", "benchmark sponsor")
		system      = flag.String("system", "Example IoT Gateway", "system name")
		seed        = flag.Uint64("seed", 1, "simulation seed")
		esOnly      = flag.Bool("es", false, "print only the executive summary")

		benchJSON = flag.String("benchjson", "", "convert go-bench output (file, or - for stdin) to canonical bench JSON")
		benchOut  = flag.String("bench-out", "", "with -benchjson: output file (default stdout)")
		benchDiff = flag.Bool("benchdiff", false, "compare two canonical bench JSON files: <baseline> <new>")
		threshold = flag.Float64("threshold", 0, "with -benchdiff: worse-by factor that fails the gate (default 2.0)")
		diffOut   = flag.String("diff-out", "", "with -benchdiff: also write the diff report as JSON here")
	)
	flag.Parse()

	if *benchJSON != "" {
		if err := runBenchJSON(*benchJSON, *benchOut); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *benchDiff {
		if err := runBenchDiff(flag.Args(), *threshold, *diffOut); err != nil {
			log.Fatal(err)
		}
		return
	}

	result, err := experiments.SimulatedResult(*nodes, *substations, *kvps, *seed,
		time.Date(2017, time.June, 1, 0, 0, 0, 0, time.UTC))
	if err != nil {
		log.Fatal(err)
	}

	cfg := pricing.ReferenceConfiguration(*nodes)
	result.Metric.OwnershipCost = cfg.TotalCost()
	result.Metric.Availability = cfg.Availability()

	report := &fdr.Report{
		Sponsor:          *sponsor,
		SystemName:       fmt.Sprintf("%s (%d nodes)", *system, *nodes),
		BenchmarkVersion: "1.0.3",
		Date:             time.Now(),
		Tunables:         fdr.PaperTunables(),
		Measured:         fdr.ReferenceSystem(*nodes),
		Priced:           fdr.ReferenceSystem(*nodes),
		Result:           result,
		Pricing:          cfg,
		Audit: audit.Record{
			Method:   audit.PeerAudit,
			Auditors: []string{"reviewer-a", "reviewer-b", "reviewer-c"},
			Date:     time.Now(),
		},
	}
	if err := report.Validate(); err != nil {
		log.Fatal(err)
	}
	if *esOnly {
		fmt.Print(report.ExecutiveSummary())
		return
	}
	fmt.Print(report.Render())
	if !result.Valid() {
		os.Exit(2)
	}
}
