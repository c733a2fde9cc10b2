package telemetry

import (
	"runtime"
	"testing"
	"time"
)

func gaugeByName(reg *Registry, name string) (int64, bool) {
	for _, g := range reg.Gauges() {
		if g.Name == name {
			return g.Value, true
		}
	}
	return 0, false
}

func TestHealthSamplerGauges(t *testing.T) {
	reg := NewRegistry()
	// A long interval so only explicit Sample calls produce readings and
	// the test is deterministic.
	h := StartHealthSampler(reg, time.Hour)
	defer h.Stop()

	for _, name := range []string{
		"runtime.heap_alloc_bytes",
		"runtime.heap_sys_bytes",
		"runtime.rss_bytes",
		"runtime.goroutines",
		"runtime.gc_count",
		"runtime.gc_pause_total_ns",
	} {
		if _, ok := gaugeByName(reg, name); !ok {
			t.Errorf("gauge %s not registered", name)
		}
	}
	// Gauges serve the cached readings, so nonzero values show that the
	// sampler took its first reading at start.
	if v, _ := gaugeByName(reg, "runtime.heap_alloc_bytes"); v <= 0 {
		t.Errorf("heap_alloc_bytes = %d, want > 0", v)
	}
	if v, _ := gaugeByName(reg, "runtime.goroutines"); v <= 0 {
		t.Errorf("goroutines = %d, want > 0", v)
	}
	// statm is always present on Linux, where CI runs.
	if v, _ := gaugeByName(reg, "runtime.rss_bytes"); v <= 0 {
		t.Errorf("rss_bytes = %d, want > 0 on linux", v)
	}
}

func TestHealthSamplerGCPauses(t *testing.T) {
	reg := NewRegistry()
	h := StartHealthSampler(reg, time.Hour)
	defer h.Stop()

	startCount, _ := gaugeByName(reg, "runtime.gc_count")
	runtime.GC()
	runtime.GC()
	h.Sample()

	endCount, _ := gaugeByName(reg, "runtime.gc_count")
	if endCount < startCount+2 {
		t.Errorf("gc_count went %d -> %d, want +2 from forced GCs", startCount, endCount)
	}
	// Each completed cycle since start must appear exactly once in the
	// pause histogram (the pre-start seed excludes earlier cycles).
	snap := h.pauseHist.Snapshot()
	if snap.Count() != endCount-startCount {
		t.Errorf("gc.pause entries = %d, want %d (one per cycle since start)",
			snap.Count(), endCount-startCount)
	}
	// Re-sampling without new cycles must not double-record pauses.
	h.Sample()
	if again := h.pauseHist.Snapshot().Count(); again != snap.Count() {
		t.Errorf("gc.pause entries grew %d -> %d without new GC cycles", snap.Count(), again)
	}
}

func TestHealthSamplerNil(t *testing.T) {
	var h *HealthSampler
	if got := StartHealthSampler(nil, time.Second); got != nil {
		t.Errorf("StartHealthSampler(nil) = %v, want nil", got)
	}
	// All methods must be nil-safe: the driver holds a nil sampler when
	// telemetry is off.
	h.Sample()
	h.Stop()
}

func TestHealthSamplerStopIdempotent(t *testing.T) {
	reg := NewRegistry()
	h := StartHealthSampler(reg, time.Millisecond)
	time.Sleep(5 * time.Millisecond)
	h.Stop()
	h.Stop()
	// Gauges keep serving the final reading after Stop.
	if v, ok := gaugeByName(reg, "runtime.heap_alloc_bytes"); !ok || v <= 0 {
		t.Errorf("heap gauge after stop = %d (ok=%v)", v, ok)
	}
}

func TestSeriesGaugeStats(t *testing.T) {
	s := &Series{Points: []Point{
		{Gauges: []Value{{Name: "g", Value: 10}, {Name: "other", Value: 1}}},
		{Gauges: []Value{{Name: "g", Value: 30}}},
		{Gauges: []Value{{Name: "g", Value: 20}}},
	}}
	peak, mean, ok := s.GaugeStats("g")
	if !ok || peak != 30 || mean != 20 {
		t.Errorf("GaugeStats = (%d, %f, %v), want (30, 20, true)", peak, mean, ok)
	}
	if _, _, ok := s.GaugeStats("absent"); ok {
		t.Error("absent gauge reported ok")
	}
}
