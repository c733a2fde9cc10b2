// Saturation benchmark for the quorum-ack write pipeline and admission
// control (PR 8): concurrent put load against a 3-node cluster whose third
// replica is deliberately slow, swept across ack policy (full fan-out vs
// majority quorum) and offered load (1x/2x/4x the handler pool). The tail
// latencies show what the quorum ack hides — under full fan-out every put
// waits out the slow member's delay, under quorum the straggler catches up
// off the critical path — and the 4x variants show saturation degrading
// through retryable sheds instead of unbounded queueing. Results are
// captured in results/BENCH_PR8.json; CI re-runs this and gates on
// benchdiff against that baseline.
package tpcxiot

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"testing"
	"time"

	"tpcxiot/internal/hbase"
	"tpcxiot/internal/lsm"
	"tpcxiot/internal/replication"
	"tpcxiot/internal/telemetry"
	"tpcxiot/internal/wal"
)

// slowApplier injects a fixed per-batch apply delay into one replication
// member, modelling a replica on a degraded disk. It is the benchmark
// counterpart of the blocking straggler the overload tests use.
type slowApplier struct {
	inner replication.Applier
	delay time.Duration
}

// ApplyBatch forwards the trace span with the batch: a wrapper that dropped
// it would erase every engine span under this member.
func (s *slowApplier) ApplyBatch(parent telemetry.TSpan, b *lsm.Batch) error {
	time.Sleep(s.delay)
	return s.inner.ApplyBatch(parent, b)
}

// BenchmarkClusterSaturation drives putsPerWorker unbuffered puts from
// loadMult x baseWorkers concurrent clients per op into a single-region,
// 3-way-replicated table whose member 2 applies each batch slowDelay late.
// The handler pool is small (4) so 4x load queues past the shed watermark,
// and the straggler's catch-up queue is sized so quorum-mode rounds beyond
// 2x overflow it. Reported metrics:
//
//	p50_ns/p99_ns/p999_ns  end-to-end put latency percentiles, retries and
//	                       backoff included (lower-better, CI-gated)
//	puts_per_s             aggregate acknowledged-put rate (higher-better)
//	shed_rate              fraction of mutate attempts refused with the
//	                       retryable ErrOverloaded (informational — the
//	                       4x variants are *supposed* to shed)
//	retries_per_put        client backoff retries per acknowledged put
//
// The PR 8 acceptance criterion reads straight off the variants: at 1x and
// 2x (load the straggler can absorb off the critical path) p999_ns for
// quorum=majority must be >=5x below quorum=full, and quorum=majority at 4x
// must show shed_rate > 0 with zero exhausted retries — past the
// straggler's drain rate the pipeline refuses retryably instead of queueing
// without bound, so the 4x tail is backoff, not loss.
func BenchmarkClusterSaturation(b *testing.B) {
	const (
		baseWorkers   = 4
		putsPerWorker = 250
		slowDelay     = 200 * time.Microsecond
		handlerCount  = 4
		shedWatermark = 8
		// Between the 2x and 4x per-round batch volumes (2000 and 4000):
		// quorum mode absorbs 1x/2x rounds entirely off the critical path,
		// while 4x overruns the straggler's queue and must shed.
		catchUpQueue   = 2560
		retryMax       = 1000
		retryBaseDelay = 100 * time.Microsecond
		retryMaxDelay  = 2 * time.Millisecond
	)
	value := []byte("0123456789abcdef0123456789abcdef") // 32 B reading payload

	for _, q := range []struct {
		name string
		acks int
	}{
		{"full", replication.DefaultFactor},
		{"majority", replication.MajorityQuorum(replication.DefaultFactor)},
	} {
		for _, loadMult := range []int{1, 2, 4} {
			name := fmt.Sprintf("quorum=%s/load=%dx", q.name, loadMult)
			b.Run(name, func(b *testing.B) {
				dir, err := os.MkdirTemp("", "tpcxiot-sat-*")
				if err != nil {
					b.Fatal(err)
				}
				defer os.RemoveAll(dir)
				cluster, err := hbase.NewCluster(hbase.Config{
					Nodes:          3,
					DataDir:        dir,
					HandlerCount:   handlerCount,
					QuorumAcks:     q.acks,
					CatchUpQueue:   catchUpQueue,
					ShedWatermark:  shedWatermark,
					RetryMax:       retryMax,
					RetryBaseDelay: retryBaseDelay,
					RetryMaxDelay:  retryMaxDelay,
					Store:          lsm.Options{WALSync: wal.SyncNever},
					MemberWrapper: func(region string, idx int, app replication.Applier) replication.Applier {
						if idx != 2 {
							return app
						}
						return &slowApplier{inner: app, delay: slowDelay}
					},
				})
				if err != nil {
					b.Fatal(err)
				}
				defer cluster.Close()
				if _, err := cluster.CreateTable("iot", nil); err != nil {
					b.Fatal(err)
				}

				workers := baseWorkers * loadMult
				clients := make([]*hbase.Client, workers)
				for w := range clients {
					// Buffer size 0: every put is its own mutate round trip,
					// so each latency sample is one end-to-end acknowledged
					// write.
					if clients[w], err = cluster.NewClient("iot", 0); err != nil {
						b.Fatal(err)
					}
				}
				lats := make([][]time.Duration, workers)
				for w := range lats {
					lats[w] = make([]time.Duration, 0, b.N*putsPerWorker)
				}

				totalPuts := int64(0)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					var wg sync.WaitGroup
					for w := 0; w < workers; w++ {
						wg.Add(1)
						go func(w, round int) {
							defer wg.Done()
							c := clients[w]
							for j := 0; j < putsPerWorker; j++ {
								key := fmt.Sprintf("sat%02d-%03d-%06d", w, round, j)
								t0 := time.Now()
								err := c.Put([]byte(key), value)
								lats[w] = append(lats[w], time.Since(t0))
								if err != nil && !errors.Is(err, hbase.ErrOverloaded) {
									b.Errorf("worker %d put: %v", w, err)
									return
								}
							}
						}(w, i)
					}
					wg.Wait()
					totalPuts += int64(workers * putsPerWorker)
					// Drain the straggler between rounds, outside the timed
					// region, so every round starts from an empty catch-up
					// queue and rounds are comparable.
					b.StopTimer()
					if err := cluster.Quiesce(); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
				b.StopTimer()

				var all []time.Duration
				for _, l := range lats {
					all = append(all, l...)
				}
				sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
				pct := func(p float64) float64 {
					if len(all) == 0 {
						return 0
					}
					idx := int(p / 100 * float64(len(all)-1))
					return float64(all[idx])
				}

				var retries, exhausted int64
				for _, c := range clients {
					r, e := c.RetryStats()
					retries += r
					exhausted += e
				}
				var sheds int64
				for _, srv := range cluster.Servers() {
					sheds += srv.Stats().Sheds
				}
				if exhausted > 0 {
					b.Fatalf("%d puts exhausted %d retries; saturation must stay retryable", exhausted, int64(retryMax))
				}

				b.ReportMetric(pct(50), "p50_ns")
				b.ReportMetric(pct(99), "p99_ns")
				b.ReportMetric(pct(99.9), "p999_ns")
				attempts := totalPuts + sheds
				if attempts > 0 {
					b.ReportMetric(float64(sheds)/float64(attempts), "shed_rate")
				}
				if totalPuts > 0 {
					b.ReportMetric(float64(retries)/float64(totalPuts), "retries_per_put")
				}
				if el := b.Elapsed().Seconds(); el > 0 {
					b.ReportMetric(float64(totalPuts)/el, "puts_per_s")
				}
			})
		}
	}
}
