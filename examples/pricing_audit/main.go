// Pricing and audit: build the priced configuration for an 8-node SUT, run
// a paper-scale simulated benchmark, compute the three primary TPCx-IoT
// metrics (IoTps, $/IoTps, availability), run the audit checklist, and emit
// the Executive Summary.
//
//	go run ./examples/pricing_audit
package main

import (
	"fmt"
	"log"
	"time"

	"tpcxiot/internal/audit"
	"tpcxiot/internal/experiments"
	"tpcxiot/internal/fdr"
	"tpcxiot/internal/pricing"
)

func main() {
	const nodes, substations = 8, 32

	// Price the reference configuration (the paper's testbed, priced with
	// plausible list prices and 3-year maintenance).
	cfg := pricing.ReferenceConfiguration(nodes)
	if err := cfg.Validate(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("Priced configuration")
	fmt.Println("--------------------")
	fmt.Print(cfg.String())
	fmt.Println()

	// Run the benchmark at paper scale on the simulated testbed. This
	// ingests 2 x 2 x 400M virtual kvps; expect ~a minute of wall time.
	fmt.Println("running simulated benchmark (2 iterations, 400M kvps each run)...")
	result, err := experiments.SimulatedResult(nodes, substations, 400_000_000, 1,
		time.Date(2017, time.June, 1, 0, 0, 0, 0, time.UTC))
	if err != nil {
		log.Fatal(err)
	}
	result.Metric.OwnershipCost = cfg.TotalCost()
	result.Metric.Availability = cfg.Availability()

	iotps, err := result.Metric.IoTps()
	if err != nil {
		log.Fatal(err)
	}
	pp, err := result.Metric.PricePerformance()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nPrimary metrics: %.0f IoTps, %.2f USD/IoTps, available %s\n\n",
		iotps, pp, cfg.Availability().Format(time.DateOnly))

	// Audit and summarise.
	report := &fdr.Report{
		Sponsor:          "Example Corp",
		SystemName:       "Example IoT Gateway G8",
		BenchmarkVersion: "1.0.3",
		Date:             time.Now(),
		Tunables:         fdr.PaperTunables(),
		Measured:         fdr.ReferenceSystem(nodes),
		Priced:           fdr.ReferenceSystem(nodes),
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
	fmt.Print(report.ExecutiveSummary())
	fmt.Println()
	fmt.Println("Audit verdicts")
	fmt.Println("--------------")
	for _, v := range result.Verdicts() {
		fmt.Print(v)
	}
}
