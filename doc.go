// Package tpcxiot is a from-scratch Go implementation of TPCx-IoT, the
// TPC's industry-standard benchmark for IoT gateway systems, together with
// every substrate the benchmark depends on and a calibrated discrete-event
// simulation of the evaluation testbeds from:
//
//	Poess, Nambiar, Kulkarni, Narasimhadevara, Rabl, Jacobsen.
//	"Analysis of TPCx-IoT: The First Industry Standard Benchmark for IoT
//	Gateway Systems." ICDE 2018.
//
// The repository layout:
//
//   - internal/kvp, internal/sensors, internal/gen — the sensor-reading
//     data model and deterministic generators;
//   - internal/bloom, internal/memtable, internal/wal, internal/sstable,
//     internal/lsm — the storage engine;
//   - internal/replication, internal/hbase — the distributed gateway
//     store (the live System Under Test);
//   - internal/ycsb, internal/workload — the YCSB-style framework and the
//     TPCx-IoT workload (ingest plus the four dashboard query templates);
//   - internal/driver, internal/metrics, internal/audit, internal/pricing,
//     internal/fdr — the benchmark kit: execution rules, primary metrics,
//     checks, pricing and disclosure;
//   - internal/testbed, internal/experiments — the simulated paper
//     testbeds and the table/figure regeneration harness.
//
// Binaries live under cmd/ and runnable examples under examples/. The
// benchmarks in bench_test.go regenerate one table or figure each; see
// DESIGN.md for the per-experiment index and EXPERIMENTS.md for measured
// versus published values.
package tpcxiot
