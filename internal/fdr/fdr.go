// Package fdr produces the Full Disclosure Report (FDR) and Executive
// Summary every TPCx-IoT result must publish (Section IV-C).
//
// The FDR exists so a result can be compared and replicated: it discloses
// every customer-tunable parameter changed from its default, any special
// compilation flags, diagrams of the measured and priced configurations
// with their differences, the complete price sheet, the benchmark report,
// and the audit record.
package fdr

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"tpcxiot/internal/audit"
	"tpcxiot/internal/driver"
	"tpcxiot/internal/pricing"
)

// Sentinel errors for missing disclosures.
var (
	ErrNoSponsor = errors.New("fdr: benchmark sponsor not disclosed")
	ErrNoSystem  = errors.New("fdr: system name not disclosed")
	ErrNoResult  = errors.New("fdr: benchmark result missing")
	ErrNoPricing = errors.New("fdr: priced configuration missing")
	ErrNoDiagram = errors.New("fdr: measured configuration not described")
	ErrBadAudit  = errors.New("fdr: audit record invalid")
)

// SystemDescription captures the configuration details the FDR's diagrams
// must show: node counts, processors with cache sizes, memory, disks,
// network, and the software stack.
type SystemDescription struct {
	Nodes             int
	ProcessorsPerNode string // e.g. "2x Intel Xeon E5-2680 v4, 14c/28t, 2.4 GHz"
	L2Cache           string
	L3Cache           string
	MemoryPerNode     string
	DisksPerNode      string
	Network           string
	Software          []string
}

// Diagram renders the configuration as the text equivalent of the FDR's
// required diagram.
func (d SystemDescription) Diagram() string {
	var b strings.Builder
	fmt.Fprintf(&b, "+------------------------------------------------------------+\n")
	fmt.Fprintf(&b, "| %d node(s), each:\n", d.Nodes)
	fmt.Fprintf(&b, "|   processors: %s\n", d.ProcessorsPerNode)
	fmt.Fprintf(&b, "|   caches:     L2 %s, L3 %s\n", d.L2Cache, d.L3Cache)
	fmt.Fprintf(&b, "|   memory:     %s\n", d.MemoryPerNode)
	fmt.Fprintf(&b, "|   disks:      %s\n", d.DisksPerNode)
	fmt.Fprintf(&b, "|   network:    %s\n", d.Network)
	for i, sw := range d.Software {
		if i == 0 {
			fmt.Fprintf(&b, "|   software:   %s\n", sw)
		} else {
			fmt.Fprintf(&b, "|               %s\n", sw)
		}
	}
	fmt.Fprintf(&b, "+------------------------------------------------------------+\n")
	return b.String()
}

// complete reports whether the description carries the required fields.
func (d SystemDescription) complete() bool {
	return d.Nodes > 0 && d.ProcessorsPerNode != "" && d.MemoryPerNode != "" &&
		d.DisksPerNode != "" && d.Network != ""
}

// Report is a Full Disclosure Report.
type Report struct {
	// Sponsor is the company publishing the result.
	Sponsor string
	// SystemName names the SUT product.
	SystemName string
	// BenchmarkVersion is the kit version used.
	BenchmarkVersion string
	// Date is the publication date.
	Date time.Time
	// Tunables lists every customer-tunable parameter changed from the
	// product default, as the FDR rules require.
	Tunables map[string]string
	// CompilerFlags discloses optimisation flags of specially compiled
	// software.
	CompilerFlags []string
	// Measured and Priced describe the two configurations; Differences
	// explains any gap between them.
	Measured, Priced SystemDescription
	Differences      string
	// Result is the benchmark outcome.
	Result *driver.Result
	// Pricing is the priced configuration.
	Pricing pricing.Configuration
	// Audit documents the pre-publication audit.
	Audit audit.Record
}

// PaperTunables returns the HBase tuning the paper's evaluation discloses,
// the worked example used by the report tooling.
func PaperTunables() map[string]string {
	return map[string]string{
		"hbase.client.write.buffer":        "8589934592", // 8 GB
		"hbase.regionserver.handler.count": "224",
		"hbase.regionserver.maxlogs":       "128",
		"hbase.hstore.blockingStoreFiles":  "28",
		"hbase_regionserver_java_heap":     "32g",
		"client_java_heap":                 "8g",
	}
}

// Validate checks the FDR carries every required disclosure.
func (r *Report) Validate() error {
	switch {
	case r.Sponsor == "":
		return ErrNoSponsor
	case r.SystemName == "":
		return ErrNoSystem
	case r.Result == nil:
		return ErrNoResult
	case !r.Measured.complete():
		return ErrNoDiagram
	}
	if err := r.Pricing.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrNoPricing, err)
	}
	if err := r.Audit.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrBadAudit, err)
	}
	return nil
}

// ExecutiveSummary renders the condensed publication page: the three
// primary metrics plus the headline configuration.
func (r *Report) ExecutiveSummary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "TPCx-IoT Executive Summary\n")
	fmt.Fprintf(&b, "==========================\n")
	fmt.Fprintf(&b, "Sponsor:          %s\n", r.Sponsor)
	fmt.Fprintf(&b, "System:           %s\n", r.SystemName)
	fmt.Fprintf(&b, "Report date:      %s\n", r.Date.Format(time.DateOnly))
	if r.Result != nil {
		if iotps, err := r.Result.Metric.IoTps(); err == nil {
			fmt.Fprintf(&b, "Performance:      %.2f IoTps\n", iotps)
			if cost := r.Pricing.TotalCost(); cost > 0 && iotps > 0 {
				fmt.Fprintf(&b, "Price/IoTps:      %.2f %s/IoTps\n", cost/iotps, r.Pricing.Currency)
			}
		}
		fmt.Fprintf(&b, "Result valid:     %v (compliant: %v)\n", r.Result.Valid(), r.Result.Compliant)
	}
	if a := r.Pricing.Availability(); !a.IsZero() {
		fmt.Fprintf(&b, "Availability:     %s\n", a.Format(time.DateOnly))
	}
	fmt.Fprintf(&b, "Total system cost: %.2f %s\n", r.Pricing.TotalCost(), r.Pricing.Currency)
	fmt.Fprintf(&b, "Audit:            %s\n", r.Audit.Method)
	return b.String()
}

// Render produces the complete FDR text.
func (r *Report) Render() string {
	var b strings.Builder
	b.WriteString(r.ExecutiveSummary())
	b.WriteString("\n")

	fmt.Fprintf(&b, "1. Changed customer-tunable parameters\n")
	fmt.Fprintf(&b, "--------------------------------------\n")
	if len(r.Tunables) == 0 {
		b.WriteString("(all defaults)\n")
	} else {
		keys := make([]string, 0, len(r.Tunables))
		for k := range r.Tunables {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, "%-40s = %s\n", k, r.Tunables[k])
		}
	}
	if len(r.CompilerFlags) > 0 {
		fmt.Fprintf(&b, "\nCompiler optimisation flags: %s\n", strings.Join(r.CompilerFlags, " "))
	}

	fmt.Fprintf(&b, "\n2. Measured configuration\n-------------------------\n%s", r.Measured.Diagram())
	fmt.Fprintf(&b, "\n3. Priced configuration\n-----------------------\n%s", r.Priced.Diagram())
	if r.Differences != "" {
		fmt.Fprintf(&b, "Differences: %s\n", r.Differences)
	} else {
		fmt.Fprintf(&b, "Differences: none — measured and priced configurations are identical\n")
	}

	fmt.Fprintf(&b, "\n4. Price sheet\n--------------\n%s", r.Pricing.String())

	if r.Result != nil {
		fmt.Fprintf(&b, "\n5. Benchmark report\n-------------------\n%s", r.Result.Report())
	}

	fmt.Fprintf(&b, "\n6. Audit\n--------\nMethod: %s\n", r.Audit.Method)
	for _, a := range r.Audit.Auditors {
		fmt.Fprintf(&b, "Auditor: %s\n", a)
	}
	if !r.Audit.Date.IsZero() {
		fmt.Fprintf(&b, "Audited: %s\n", r.Audit.Date.Format(time.DateOnly))
	}
	return b.String()
}

// ReferenceSystem describes the paper's 8-blade testbed, reusable by the
// examples and the report command.
func ReferenceSystem(nodes int) SystemDescription {
	return SystemDescription{
		Nodes:             nodes,
		ProcessorsPerNode: "2x Intel Xeon E5-2680 v4 @ 2.40 GHz (14 cores / 28 threads each)",
		L2Cache:           "256 KiB per core",
		L3Cache:           "35 MiB shared",
		MemoryPerNode:     "256 GB DDR4",
		DisksPerNode:      "2x Samsung 3.8 TB 2.5\" Enterprise Value 6G SATA SSD",
		Network:           "2x Cisco UCS 6324 fabric interconnect, 10 Gbps per node",
		Software: []string{
			"Linux (x86-64)",
			"HBase 1.2.0 (3-way HDFS replication)",
			"TPCx-IoT kit (YCSB-based workload driver)",
		},
	}
}
