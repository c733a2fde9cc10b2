package testbed

import (
	"errors"
	"fmt"
	"time"

	"tpcxiot/internal/audit"
	"tpcxiot/internal/histogram"
	"tpcxiot/internal/metrics"
)

// Sentinel errors.
var (
	ErrBadConfig = errors.New("testbed: invalid configuration")
	ErrBudget    = errors.New("testbed: event budget exhausted before completion")
)

// Config parametrises one simulated benchmark execution.
type Config struct {
	// Nodes is the cluster size (the paper evaluates 2, 4 and 8).
	Nodes int
	// Substations is the number of TPCx-IoT driver instances.
	Substations int
	// TotalKVPs is the fixed ingest volume K.
	TotalKVPs int64
	// Seed drives all stochastic elements.
	Seed uint64
	// Params overrides the calibrated model constants; nil uses defaults.
	Params *Params
}

func (c Config) withDefaults() (Config, Params, error) {
	p := DefaultParams()
	if c.Params != nil {
		p = *c.Params
	}
	if err := p.validate(); err != nil {
		return c, p, err
	}
	if c.Nodes <= 0 {
		return c, p, fmt.Errorf("%w: Nodes must be positive", ErrBadConfig)
	}
	if c.Substations <= 0 {
		return c, p, fmt.Errorf("%w: Substations must be positive", ErrBadConfig)
	}
	if c.TotalKVPs <= 0 {
		return c, p, fmt.Errorf("%w: TotalKVPs must be positive", ErrBadConfig)
	}
	return c, p, nil
}

// Execution is the outcome of one simulated workload execution. All times
// are virtual.
type Execution struct {
	// Elapsed is the workload execution time (TS_end - TS_start).
	Elapsed time.Duration
	// KVPs is the total ingested (always the configured K on success).
	KVPs int64
	// DriverElapsed is each substation's ingest completion time, the
	// statistic behind Table II.
	DriverElapsed []time.Duration
	// Queries is the number of dashboard queries executed.
	Queries int64
	// AvgRowsPerQuery is the mean readings aggregated per query across
	// both 5-second intervals (Figure 12; a run is invalid below 200,
	// which matches Equation 2's 100-reading floor per interval).
	AvgRowsPerQuery float64
	// QueryLatency and InsertLatency are virtual-time distributions in
	// nanoseconds.
	QueryLatency  histogram.Snapshot
	InsertLatency histogram.Snapshot
	// NodeUtilisation is each server's busy fraction.
	NodeUtilisation []float64
	// Events is the number of simulation events processed.
	Events uint64
}

// IoTps is the execution's system-wide throughput.
func (e Execution) IoTps() float64 {
	if e.Elapsed <= 0 {
		return 0
	}
	return float64(e.KVPs) / e.Elapsed.Seconds()
}

// PerSensorIoTps is the per-sensor ingest rate given the substation count.
func (e Execution) PerSensorIoTps(substations int) float64 {
	return metrics.PerSensorIoTps(e.IoTps(), substations)
}

// IngestSkew returns the fastest, slowest and mean substation ingest times
// (Table II).
func (e Execution) IngestSkew() (min, max, avg time.Duration) {
	if len(e.DriverElapsed) == 0 {
		return 0, 0, 0
	}
	min, max = e.DriverElapsed[0], e.DriverElapsed[0]
	var sum time.Duration
	for _, d := range e.DriverElapsed {
		if d < min {
			min = d
		}
		if d > max {
			max = d
		}
		sum += d
	}
	return min, max, sum / time.Duration(len(e.DriverElapsed))
}

// Execute simulates one workload execution and returns its measurements.
func Execute(cfg Config) (Execution, error) {
	c, p, err := cfg.withDefaults()
	if err != nil {
		return Execution{}, err
	}
	r := newRun(p, c.Nodes, c.Substations, c.TotalKVPs, c.Seed)
	r.start()
	if !r.s.runUntil(func() bool { return r.remaining == 0 }, p.MaxEvents) {
		return Execution{}, fmt.Errorf("%w: %d events", ErrBudget, p.MaxEvents)
	}

	out := Execution{
		Elapsed: time.Duration(r.endAt * float64(time.Second)),
		Events:  r.s.events,
	}
	var rows, queries int64
	for _, d := range r.drivers {
		out.KVPs += d.done
		out.DriverElapsed = append(out.DriverElapsed,
			time.Duration((d.finishAt-d.startAt)*float64(time.Second)))
		rows += d.rowsRecent + d.rowsHistoric
		queries += d.queries
	}
	out.Queries = queries
	if queries > 0 {
		out.AvgRowsPerQuery = float64(rows) / float64(queries)
	}
	out.QueryLatency = r.queryLat.Snapshot()
	out.InsertLatency = r.insertLat.Snapshot()
	for _, n := range r.nodes {
		util := 0.0
		if r.endAt > 0 {
			util = n.busyTime / r.endAt
			if util > 1 {
				util = 1
			}
		}
		out.NodeUtilisation = append(out.NodeUtilisation, util)
	}
	return out, nil
}

// BenchmarkResult is a full simulated benchmark iteration: warmup plus
// measured execution with the execution-rule checks applied to the
// measured run.
type BenchmarkResult struct {
	Warmup   Execution
	Measured Execution
	// Verdict holds the execution rules evaluated over the iteration.
	Verdict audit.Verdict
}

// RunBenchmark simulates the warmup and measured executions of one
// iteration (distinct stochastic seeds) and evaluates the execution rules
// against the measured run, exactly as the live driver does.
func RunBenchmark(cfg Config) (BenchmarkResult, error) {
	var res BenchmarkResult
	warm, err := Execute(Config{
		Nodes: cfg.Nodes, Substations: cfg.Substations,
		TotalKVPs: cfg.TotalKVPs, Seed: cfg.Seed*2 + 1, Params: cfg.Params,
	})
	if err != nil {
		return res, fmt.Errorf("testbed: warmup: %w", err)
	}
	meas, err := Execute(Config{
		Nodes: cfg.Nodes, Substations: cfg.Substations,
		TotalKVPs: cfg.TotalKVPs, Seed: cfg.Seed*2 + 2, Params: cfg.Params,
	})
	if err != nil {
		return res, fmt.Errorf("testbed: measured: %w", err)
	}
	res.Warmup = warm
	res.Measured = meas
	res.Verdict = audit.NewAuditor(audit.Config{MinWarmupSeconds: audit.MinWorkloadSeconds}).Evaluate(audit.RunInfo{
		WarmupSeconds:   warm.Elapsed.Seconds(),
		MeasuredSeconds: meas.Elapsed.Seconds(),
		KVPs:            meas.KVPs,
		ExpectedKVPs:    cfg.TotalKVPs,
		TotalOps:        meas.KVPs + meas.Queries,
		Substations:     cfg.Substations,
		RowsPerQuery:    meas.AvgRowsPerQuery,
	})
	return res, nil
}
