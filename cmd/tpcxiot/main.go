// Command tpcxiot runs the TPCx-IoT benchmark against the live mini-HBase
// cluster, over its loopback TCP wire protocol, mirroring the kit's command
// line: the number of driver instances (simulated power substations) and
// the total number of kvps to ingest.
//
// Usage:
//
//	tpcxiot -drivers 4 -kvps 400000 -nodes 3
//
// A compliant run requires -kvps large enough that every workload
// execution exceeds 1800 s; smaller runs complete quickly but are reported
// as non-compliant (useful for laptop-scale shape checks). The process
// exits 0 for a valid result, 2 for an invalid one and 1 on error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"tpcxiot/internal/audit"
	"tpcxiot/internal/driver"
	"tpcxiot/internal/hbase"
	"tpcxiot/internal/lsm"
	"tpcxiot/internal/replication"
	"tpcxiot/internal/telemetry"
	"tpcxiot/internal/wal"
)

// interrupted is set by the SIGINT/SIGTERM handler, which then owns the
// exit: it flushes the run's artefacts, cleans up and exits 130.
var interrupted atomic.Bool

func main() {
	code := run()
	if interrupted.Load() {
		select {} // the handler exits once its flush and cleanup are done
	}
	os.Exit(code)
}

// run executes the benchmark and returns the process exit code. Returning
// instead of exiting lets the cleanup — the cluster, the observability
// server and a temporary data directory — run on every path; an interrupt
// runs the same cleanup before it exits.
func run() int {
	var (
		drivers     = flag.Int("drivers", 2, "driver instances (simulated power substations)")
		kvps        = flag.Int64("kvps", 200_000, "total kvps to ingest per workload execution")
		nodes       = flag.Int("nodes", 3, "region servers in the cluster")
		threads     = flag.Int("threads", 4, "worker threads per driver instance")
		writeBuffer = flag.Int64("writebuffer", 256<<10, "client write buffer bytes (hbase.client.write.buffer)")
		handlers    = flag.Int("handlers", 32, "request handlers per region server")
		quorum      = flag.Int("quorum", 0, "members (primary included) that must apply before a write acks; 0 = majority of the replication factor, -1 = full fan-out (pre-quorum behavior)")
		shedWater   = flag.Int("shed-watermark", 0, "queued mutates per server beyond which new ones are shed with a retryable overload error (0 = 4x handlers, negative disables shedding)")
		iterations  = flag.Int("iterations", 2, "benchmark iterations (spec requires 2)")
		minSeconds  = flag.Float64("minseconds", 1800, "minimum workload execution seconds for validity")
		dataDir     = flag.String("datadir", "", "data directory (default: temporary)")
		seed        = flag.Uint64("seed", 1, "workload generation seed")
		durable     = flag.Bool("durable", false, "fsync the WAL on every append (slow, crash-safe)")
		analytics   = flag.Bool("analytics", false, "add downsampling and group-by-window analytic query templates to the query rotation (reported separately from the dashboard validity statistics)")
		status      = flag.Duration("status", 0, "log a status line for driver 0 on this interval (e.g. 2s)")
		targetRate  = flag.Float64("target-rate", 0, "pace the run at this system-wide intended rate in ops/s (split across drivers and threads into a fixed intended-start schedule); paced runs additionally record coordinated-omission-corrected intended latency (0 = open loop)")
		auditTol    = flag.Float64("audit-tolerance", 0, "sustained-performance band for the run-validity auditor: every complete telemetry interval must stay within this fraction of the mean interval rate (0 = auditor default 0.20)")
		auditJSON   = flag.String("audit-json", "", "write the run's audit verdicts as JSON to this file (default results/audit-<pid>.json when -telemetry is on)")

		telemetryOn  = flag.Bool("telemetry", false, "collect engine counters, op-path spans and a per-interval time series")
		telemetryInt = flag.Duration("telemetry-interval", 10*time.Second, "telemetry sampling period")
		telemetryCSV = flag.String("telemetry-csv", "", "write the telemetry time series to this CSV file (default results/telemetry-<pid>.csv when -telemetry is on)")
		telemetryAdr = flag.String("telemetry-addr", "", "serve /metrics, /storage, /healthz, /trace and /debug/pprof on this address, e.g. localhost:6060 (implies -telemetry)")
		healthInt    = flag.Duration("health-interval", 0, "runtime health sampling period (heap, GC pauses, goroutines; 0 = 1s default, negative disables)")
		traceSample  = flag.Int("trace-sample", 1024, "sample one in N client operations into distributed traces when telemetry is on (1 traces everything)")
		slowopMs     = flag.Float64("slowop-ms", -1, "log the full span tree of sampled operations slower than this many ms (0 logs every sampled op; negative disables)")
		eventsPath   = flag.String("events", "", "write structured JSONL engine events to this file (default stderr when telemetry is on)")
		traceJSON    = flag.String("trace-json", "", "write sampled traces as Chrome trace-event JSON to this file at exit (default results/trace-<pid>.json when tracing is on)")
	)
	flag.Parse()
	fail := func(err error) int {
		log.Print(err)
		return 1
	}

	// SIGINT and SIGTERM are caught from here on. A signal waits in sigc
	// until the handler below starts, once everything it cleans up exists.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	// teardown is run's cleanup, newest step first, run once: on return, or
	// by the interrupt handler before it exits.
	var steps []func()
	teardown := sync.OnceFunc(func() {
		for i := len(steps) - 1; i >= 0; i-- {
			steps[i]()
		}
	})
	defer teardown()

	dir := *dataDir
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "tpcxiot-*")
		if err != nil {
			return fail(err)
		}
		steps = append(steps, func() { os.RemoveAll(dir) })
	}

	// Telemetry: one registry shared by the cluster (engine counters, put
	// spans) and the driver (op histograms, the interval ticker), plus a
	// tracer sampling client operations into distributed traces and a
	// structured event logger for the engine.
	var reg *telemetry.Registry
	var tracer *telemetry.Tracer
	var elog *telemetry.Logger
	if *telemetryOn || *telemetryAdr != "" {
		reg = telemetry.NewRegistry()
		if *telemetryCSV == "" {
			*telemetryCSV = filepath.Join("results", fmt.Sprintf("telemetry-%d.csv", os.Getpid()))
		}
		eventsW := os.Stderr
		if *eventsPath != "" {
			if err := os.MkdirAll(filepath.Dir(*eventsPath), 0o755); err != nil {
				return fail(err)
			}
			f, err := os.Create(*eventsPath)
			if err != nil {
				return fail(err)
			}
			steps = append(steps, func() { f.Close() })
			eventsW = f
		}
		elog = telemetry.NewLogger(eventsW, telemetry.LevelInfo).Instrument(reg)
		if *traceSample > 0 {
			tracer = telemetry.NewTracer(telemetry.TracerOptions{
				SampleEvery:     *traceSample,
				SlowOpThreshold: time.Duration(*slowopMs * float64(time.Millisecond)),
				SlowOpDisabled:  *slowopMs < 0,
				Logger:          elog,
			})
			if *traceJSON == "" {
				*traceJSON = filepath.Join("results", fmt.Sprintf("trace-%d.json", os.Getpid()))
			}
		}
	}
	walSync := wal.SyncNever
	if *durable {
		walSync = wal.SyncOnAppend
	}
	quorumAcks := *quorum
	if quorumAcks < 0 {
		quorumAcks = replication.DefaultFactor // full fan-out: quorum = factor
	}
	cluster, err := hbase.NewCluster(hbase.Config{
		Nodes:         *nodes,
		HandlerCount:  *handlers,
		QuorumAcks:    quorumAcks,
		ShedWatermark: *shedWater,
		DataDir:       dir,
		Store:         lsm.Options{WALSync: walSync},
		Registry:      reg,
		Tracer:        tracer,
		Logger:        elog,
	})
	if err != nil {
		return fail(err)
	}
	steps = append(steps, func() { cluster.Close() })

	if reg != nil && *auditJSON == "" {
		*auditJSON = filepath.Join("results", fmt.Sprintf("audit-%d.json", os.Getpid()))
	}

	// Live audit state: the verdicts evaluated so far (via OnVerdict) and
	// the in-flight execution's telemetry ticker, shared by the /audit
	// endpoint and the SIGINT flush. The auditor here only evaluates the
	// interval rules of an execution still in flight.
	auditor := audit.NewAuditor(audit.Config{Tolerance: *auditTol})
	var mu sync.Mutex
	var verdicts []audit.Verdict
	var liveTicker *telemetry.Ticker
	// snapshot samples the in-flight execution's series; nil between
	// executions.
	snapshot := func() *telemetry.Series {
		mu.Lock()
		t := liveTicker
		mu.Unlock()
		if t == nil {
			return nil
		}
		return t.Snapshot()
	}
	// trail returns the verdicts evaluated so far plus, for a live series, a
	// partial verdict of the iteration in flight.
	trail := func(live *telemetry.Series) []audit.Verdict {
		mu.Lock()
		out := append([]audit.Verdict(nil), verdicts...)
		mu.Unlock()
		if live != nil {
			v := auditor.EvaluatePartial(live, *targetRate)
			v.Iteration = len(out)
			out = append(out, v)
		}
		return out
	}

	// The observability server mounts after the cluster exists so /storage
	// and /healthz can introspect the live stores, not a placeholder.
	if *telemetryAdr != "" {
		mux := telemetry.NewServeMux(reg)
		telemetry.MountTrace(mux, tracer)
		telemetry.MountJSON(mux, "/storage", func() any { return cluster.Storage() })
		telemetry.MountHealth(mux, "/healthz", func() (any, bool) {
			h := cluster.Health()
			return h, h.OK
		})
		telemetry.MountJSON(mux, "/audit", func() any { return trail(snapshot()) })
		srv, addr, err := telemetry.ServeMux(*telemetryAdr, mux)
		if err != nil {
			return fail(err)
		}
		steps = append(steps, func() { srv.Close() })
		log.Printf("telemetry: /metrics, /storage, /healthz, /audit, /trace and /debug/pprof on http://%s", addr)
	}

	sut, err := driver.NewClusterSUT(cluster, *drivers, *writeBuffer)
	if err != nil {
		return fail(err)
	}

	// On SIGINT/SIGTERM, flush what telemetry exists — the in-flight
	// interval series, the trace buffer, and the audit artefact (the
	// verdicts so far plus a partial one of the interrupted execution) — so
	// an interrupted run still leaves an auditable trail, then tear down and
	// exit 130.
	go func() {
		<-sigc
		interrupted.Store(true)
		log.Printf("interrupted: flushing telemetry and cleaning up")
		s := snapshot()
		if s != nil && len(s.Points) > 0 {
			if err := writeOneSeriesCSV(*telemetryCSV, s); err != nil {
				log.Printf("telemetry: csv export: %v", err)
			} else {
				log.Printf("telemetry: partial series written to %s", *telemetryCSV)
			}
		}
		writeAuditJSON(*auditJSON, trail(s))
		flushTraceJSON(*traceJSON, tracer)
		teardown()
		os.Exit(130)
	}()

	res, err := driver.Run(driver.Config{
		Drivers:            *drivers,
		TotalKVPs:          *kvps,
		ThreadsPerDriver:   *threads,
		Seed:               *seed,
		SUT:                sut,
		Iterations:         *iterations,
		MinWorkloadSeconds: *minSeconds,
		StatusInterval:     *status,
		Analytics:          *analytics,
		TargetRate:         *targetRate,
		AuditTolerance:     *auditTol,
		OnVerdict: func(v audit.Verdict) {
			mu.Lock()
			verdicts = append(verdicts, v)
			liveTicker = nil
			mu.Unlock()
			if !v.Valid {
				log.Printf("audit: verdict %d INVALID", v.Iteration)
			}
		},
		Telemetry:         reg,
		TelemetryInterval: *telemetryInt,
		HealthInterval:    *healthInt,
		Tracer:            tracer,
		OnTicker: func(t *telemetry.Ticker) {
			mu.Lock()
			liveTicker = t
			mu.Unlock()
		},
		Logf: func(format string, args ...any) {
			log.Printf(format, args...)
		},
	})
	if interrupted.Load() {
		return 130 // the cluster closed under the run: there is nothing to report
	}
	if res == nil {
		return fail(err)
	}
	fmt.Print(res.Report())
	if reg != nil {
		if err := writeSeriesCSVs(*telemetryCSV, res); err != nil {
			log.Printf("telemetry: csv export: %v", err)
		}
	}
	writeAuditJSON(*auditJSON, res.Verdicts())
	flushTraceJSON(*traceJSON, tracer)
	if err != nil {
		return fail(err)
	}
	if !res.Valid() {
		return 2
	}
	return 0
}

// writeAuditJSON exports the run's audit verdicts — the prerequisites, one
// per iteration, and a partial one when the run was interrupted — as one
// JSON list. No-op when path is empty.
func writeAuditJSON(path string, verdicts []audit.Verdict) {
	if path == "" {
		return
	}
	err := os.MkdirAll(filepath.Dir(path), 0o755)
	if err == nil {
		var b []byte
		if b, err = json.MarshalIndent(verdicts, "", "  "); err == nil {
			err = os.WriteFile(path, append(b, '\n'), 0o644)
		}
	}
	if err != nil {
		log.Printf("audit: artefact export: %v", err)
		return
	}
	log.Printf("audit: %d verdict(s) written to %s", len(verdicts), path)
}

// flushTraceJSON exports the tracer's completed-trace buffer as Chrome
// trace-event JSON, loadable in chrome://tracing or Perfetto.
func flushTraceJSON(path string, tracer *telemetry.Tracer) {
	if tracer == nil || path == "" {
		return
	}
	traces := tracer.Traces()
	if len(traces) == 0 {
		return
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		log.Printf("telemetry: trace export: %v", err)
		return
	}
	f, err := os.Create(path)
	if err != nil {
		log.Printf("telemetry: trace export: %v", err)
		return
	}
	err = telemetry.WriteChromeTrace(f, traces)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		log.Printf("telemetry: trace export: %v", err)
		return
	}
	log.Printf("telemetry: %d sampled trace(s) written to %s", len(traces), path)
}

// writeOneSeriesCSV writes a single series snapshot to path.
func writeOneSeriesCSV(path string, s *telemetry.Series) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = s.WriteCSV(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// writeSeriesCSVs exports each iteration's measured-run time series. With
// one iteration the series goes to path verbatim; with more, each file gets
// an -iterN suffix so no iteration overwrites another.
func writeSeriesCSVs(path string, res *driver.Result) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	ext := filepath.Ext(path)
	base := path[:len(path)-len(ext)]
	for i, it := range res.Iterations {
		s := it.Measured.Series
		if s == nil || len(s.Points) == 0 {
			continue
		}
		out := path
		if len(res.Iterations) > 1 {
			out = fmt.Sprintf("%s-iter%d%s", base, i+1, ext)
		}
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		err = s.WriteCSV(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		log.Printf("telemetry: iteration %d measured-run series written to %s", i+1, out)
	}
	return nil
}
