// Command bench is the repository's one benchmark: four named workloads over
// the whole TPCx-IoT stack, end-to-end metrics measured with tracing off, and
// a traced run of each workload that yields the per-layer budget.
//
//	bash bench/run.sh --workload kit.closed --seed 1 --seconds 15 --trace 0
//	bash bench/run.sh --workload all --seed 1
//	bash bench/run.sh --compare a.json b.json
//
// A single-workload run prints its full result as one JSON line and then, as
// the last line, the {correct, attempted, failed, metrics} object
// BENCHMARK.json describes. See README.md for what every name means.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "all", "workload to run: kit.closed, kit.paced, query.spill, engine.durable, or all")
		seed    = flag.Uint64("seed", 1, "seed every generated input derives from")
		seconds = flag.Float64("seconds", 15, "length of the measured window")
		trace   = flag.Int("trace", 0, "1 = traced run: registry and tracer on, per-layer metrics printed instead of end-to-end")
		dir     = flag.String("dir", filepath.Join("bench", "out"), "directory for per-run data dirs (removed on exit) and result documents")
		reverse = flag.Bool("reverse", false, "with -workload all: run the workloads in reverse order, so A/B pairs can interleave")
		compare = flag.Bool("compare", false, "compare two result documents given as arguments; exit 1 if a gated metric regressed beyond its bound")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two result documents"))
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	if *seconds <= 0 {
		fatal(fmt.Errorf("-seconds must be positive"))
	}
	if err := checkDisk(*dir); err != nil {
		fatal(err)
	}
	if *name == "all" {
		if err := runAll(*seed, *seconds, *dir, *reverse); err != nil {
			fatal(err)
		}
		return
	}

	def, ok := findWorkload(*name)
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	res, err := runWorkload(def, runOptions{seed: *seed, seconds: *seconds, trace: *trace == 1, dir: *dir, sz: frozen})
	if err != nil {
		fatal(err)
	}
	for _, c := range res.Checks {
		if !c.Passed {
			fmt.Fprintf(os.Stderr, "bench: %s: check %s failed: %s\n", def.Name, c.Name, c.Detail)
		}
	}
	full, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(full))
	last, err := json.Marshal(contractLine(res))
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(last))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// contractLine is the last line of a single-workload run: every end-to-end
// metric with tracing off, every per-layer metric with it on.
func contractLine(res *result) map[string]any {
	defs, vals := endToEnd, res.EndToEnd
	if res.Traced {
		defs, vals = perLayer, res.Layers
	}
	return map[string]any{
		"correct":   res.Correct,
		"attempted": max(res.Attempted, 1),
		"failed":    res.Failed,
		"metrics":   report(defs, vals),
	}
}

// document is what -workload all writes: one set of runs of every workload,
// untraced and traced, with the environment they ran in.
type document struct {
	Env       environment     `json:"env"`
	Claim     *string         `json:"claim"` // always null: the benchmark itself claims no gain
	Seed      uint64          `json:"seed"`
	Seconds   float64         `json:"seconds"`
	Sizes     sizes           `json:"sizes"`
	Gated     []metricDef     `json:"end_to_end_metrics"`
	Workloads []workloadEntry `json:"workloads"`
}

type workloadEntry struct {
	Name   string  `json:"name"`
	Why    string  `json:"why"`
	Op     string  `json:"op"`
	Run    *result `json:"run"`    // tracing off: the end-to-end metrics
	Traced *result `json:"traced"` // tracing on: the per-layer metrics
	// Traced over untraced throughput and op_p50_ms: what telemetry costs.
	TracingOverhead values `json:"tracing_overhead"`
}

// runAll runs every workload untraced and then traced, each in a process of
// its own — exactly what a single-workload invocation is — so peak RSS, CPU
// time and heap state do not leak from one workload into the next.
func runAll(seed uint64, seconds float64, dir string, reverse bool) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	doc := document{Env: describeEnvironment(dir), Seed: seed, Seconds: seconds, Sizes: frozen, Gated: endToEnd}
	order := append([]workloadDef(nil), workloads...)
	if reverse {
		for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
			order[i], order[j] = order[j], order[i]
		}
	}
	failed := false
	for _, def := range order {
		entry := workloadEntry{Name: def.Name, Why: def.Why, Op: def.Op}
		for _, traced := range []bool{false, true} {
			fmt.Fprintf(os.Stderr, "bench: %s (traced=%v)\n", def.Name, traced)
			res, err := runChild(self, def.Name, seed, seconds, traced, dir)
			if err != nil {
				return fmt.Errorf("%s: %w", def.Name, err)
			}
			failed = failed || !res.Correct || res.Failed > 0
			if traced {
				entry.Traced = res
			} else {
				entry.Run = res
			}
		}
		entry.TracingOverhead = values{
			"throughput_ratio": ratio(entry.Traced.Layers["traced.throughput"], entry.Run.EndToEnd["throughput"]),
			"op_p50_ratio":     ratio(entry.Traced.Layers["traced.op_p50_ms"], entry.Run.EndToEnd["op_p50_ms"]),
		}
		doc.Workloads = append(doc.Workloads, entry)
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("bench-seed%d-%d.json", seed, time.Now().Unix()))
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println(string(out))
	fmt.Fprintln(os.Stderr, "bench: wrote", path)
	if failed {
		return fmt.Errorf("a workload failed an output check or an operation; see %s", path)
	}
	return nil
}

// runChild runs one workload in a child process and parses its result line,
// the line before the contract line.
func runChild(self, name string, seed uint64, seconds float64, traced bool, dir string) (*result, error) {
	t := "0"
	if traced {
		t = "1"
	}
	cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'f', -1, 64), "-trace", t, "-dir", dir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if len(lines) < 2 {
		return nil, fmt.Errorf("child printed %d lines, want the result and the contract line", len(lines))
	}
	var res result
	if err := json.Unmarshal(lines[len(lines)-2], &res); err != nil {
		return nil, fmt.Errorf("child result: %w", err)
	}
	return &res, nil
}
