// Runtime health sampling: a background goroutine that periodically reads
// runtime.ReadMemStats and process state into registry gauges and a GC-pause
// histogram, so the interval series and the final report can correlate
// throughput dips with GC activity, heap growth, or goroutine leaks.
//
// Sampling is pull-push hybrid: ReadMemStats is too expensive to run inside
// a gauge function (it stops the world briefly, and several gauges would
// each pay it per snapshot), so the sampler caches one reading per period in
// atomics and the gauges serve the cached values. The sampler is off unless
// started — benchmarks that want a silent process simply never start it.

package telemetry

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tpcxiot/internal/histogram"
)

// DefaultHealthInterval is the sampling period when none is given.
const DefaultHealthInterval = time.Second

// HealthSampler periodically samples Go runtime and process health into a
// registry. Create with StartHealthSampler; stop with Stop.
type HealthSampler struct {
	interval time.Duration
	stop     chan struct{}
	done     chan struct{}
	once     sync.Once

	// Cached readings, refreshed each period, served by gauges.
	heapAlloc    atomic.Int64 // bytes in live heap objects
	heapSys      atomic.Int64 // bytes obtained from the OS for the heap
	rss          atomic.Int64 // resident set size; 0 where unavailable
	goroutines   atomic.Int64
	gcCount      atomic.Int64 // cumulative GC cycles
	gcPauseTotal atomic.Int64 // cumulative stop-the-world ns

	pauseHist *histogram.Histogram // gc.pause distribution, ns

	recordMu  sync.Mutex // serialises record: Sample may race the loop
	lastNumGC uint32
}

// StartHealthSampler begins sampling every interval (DefaultHealthInterval
// when non-positive) and registers on reg:
//
//   - gauges "runtime.heap_alloc_bytes", "runtime.heap_sys_bytes",
//     "runtime.rss_bytes", "runtime.goroutines", "runtime.gc_count" and
//     "runtime.gc_pause_total_ns", all served from the latest sample,
//   - the histogram "gc.pause" holding one entry per observed GC pause, so
//     the report's quantile machinery works on pauses like on op latencies.
//
// Returns nil on a nil registry: health sampling without a registry to
// publish into has no observable effect, so none is started.
func StartHealthSampler(reg *Registry, interval time.Duration) *HealthSampler {
	if reg == nil {
		return nil
	}
	if interval <= 0 {
		interval = DefaultHealthInterval
	}
	h := &HealthSampler{
		interval:  interval,
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
		pauseHist: reg.Histogram("gc.pause"),
	}
	reg.Gauge("runtime.heap_alloc_bytes", h.heapAlloc.Load)
	reg.Gauge("runtime.heap_sys_bytes", h.heapSys.Load)
	reg.Gauge("runtime.rss_bytes", h.rss.Load)
	reg.Gauge("runtime.goroutines", h.goroutines.Load)
	reg.Gauge("runtime.gc_count", h.gcCount.Load)
	reg.Gauge("runtime.gc_pause_total_ns", h.gcPauseTotal.Load)

	// Seed NumGC so pauses from before the sampler started are not recorded.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	h.lastNumGC = ms.NumGC
	h.record(&ms)

	go h.run()
	return h
}

func (h *HealthSampler) run() {
	defer close(h.done)
	t := time.NewTicker(h.interval)
	defer t.Stop()
	for {
		select {
		case <-h.stop:
			return
		case <-t.C:
			h.Sample()
		}
	}
}

// Sample takes one reading immediately. The background loop calls this each
// period; tests call it directly for determinism. Nil-safe.
func (h *HealthSampler) Sample() {
	if h == nil {
		return
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	h.record(&ms)
}

func (h *HealthSampler) record(ms *runtime.MemStats) {
	h.recordMu.Lock()
	defer h.recordMu.Unlock()
	h.heapAlloc.Store(int64(ms.HeapAlloc))
	h.heapSys.Store(int64(ms.HeapSys))
	h.goroutines.Store(int64(runtime.NumGoroutine()))
	h.gcCount.Store(int64(ms.NumGC))
	h.gcPauseTotal.Store(int64(ms.PauseTotalNs))
	if rss := readRSSBytes(); rss > 0 {
		h.rss.Store(rss)
	}

	// PauseNs is a ring of the last 256 pause durations indexed by GC cycle;
	// record each cycle completed since the previous sample, once. A burst of
	// more than 256 cycles per period overflows the ring and the overwritten
	// pauses are lost — acceptable for a health signal.
	n := ms.NumGC - h.lastNumGC
	if n > uint32(len(ms.PauseNs)) {
		n = uint32(len(ms.PauseNs))
	}
	for i := ms.NumGC - n; i < ms.NumGC; i++ {
		h.pauseHist.Record(int64(ms.PauseNs[i%uint32(len(ms.PauseNs))]))
	}
	h.lastNumGC = ms.NumGC
}

// Stop halts the sampling goroutine and waits for it to exit. Idempotent
// and nil-safe; the registered gauges keep serving the final reading.
func (h *HealthSampler) Stop() {
	if h == nil {
		return
	}
	h.once.Do(func() {
		close(h.stop)
		<-h.done
	})
}

// readRSSBytes returns the process resident set size from /proc/self/statm,
// or 0 where the proc filesystem is unavailable (non-Linux).
func readRSSBytes() int64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(b))
	if len(fields) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return 0
	}
	return pages * int64(os.Getpagesize())
}
