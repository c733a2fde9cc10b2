// Package telemetry is the kit's observability subsystem: cheap atomic
// counters and gauges collected in a Registry, latency histograms for
// operation kinds and pipeline stages, a lightweight span API for tracing
// the put and query paths, a Ticker that turns cumulative state into a
// per-interval time series, and an expvar-style HTTP surface.
//
// The paper's evaluation is time-resolved — throughput-over-time curves and
// latency distributions with coefficients of variation (Figure 14) — so the
// benchmark needs continuous client-side and server-side measurement, not
// just end-of-run aggregates. Everything here is standard library only and
// global-free: a Registry is created per run and threaded through the
// stack's Options structs.
//
// Every entry point is nil-safe. A nil *Registry hands out nil *Counter and
// *Timer values whose methods do nothing and, crucially, never read the
// clock, and attaching to it is a no-op — so a run with telemetry disabled
// pays only a pointer test on the hot paths, beyond the counts components
// keep for their own Stats.
package telemetry

import (
	"sort"
	"sync"
	"sync/atomic"

	"tpcxiot/internal/histogram"
)

// Counter is a cumulative atomic counter. The zero value is ready to use;
// a nil *Counter is a no-op sink, so instrumented code never branches on
// whether telemetry is enabled.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n. No-op on a nil receiver.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one. No-op on a nil receiver.
func (c *Counter) Inc() { c.Add(1) }

// Load returns the current value; 0 on a nil receiver.
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Value is one named scalar in a snapshot.
type Value struct {
	Name  string
	Value int64
}

// NamedSnapshot pairs a histogram name with its statistics.
type NamedSnapshot struct {
	Name string
	Snap histogram.Snapshot
}

// Registry holds a run's named counters, gauges and histograms. Safe for
// concurrent use.
//
// A counter is either created by the registry (Counter) or owned by the
// component that counts the event and attached to the registry (Attach).
// Either way the event is counted once and the registry builds every view
// from that one count: a counter attached with tags reports under its tagged
// name and also under its base name, and a name reports the sum of every
// counter under it. So "lsm.flushes" is the cluster roll-up of each store's
// "lsm.flushes{region=...,server=...}" wherever the registry reports —
// Counters, Summary, ticker points and /metrics. Gauges roll up the same way.
// A snapshot reads each instrument once, so in it every roll-up equals the
// sum of its tagged series exactly.
type Registry struct {
	mu       sync.Mutex
	owned    map[string]*Counter // counters Counter created, by name
	counters []reported[*Counter]
	gauges   []reported[func() int64]
	hists    map[string]*histogram.Histogram
}

// reported is one instrument and the names it reports under: its base name
// and, when attached with tags, its canonical tagged name.
type reported[T any] struct {
	name, tagged string
	v            T
}

func newReported[T any](v T, name string, tags []Tag) reported[T] {
	e := reported[T]{name: name, v: v}
	if len(tags) > 0 {
		e.tagged = Tagged(name, tags...)
	}
	return e
}

// reportsAs reports whether e counts toward name.
func (e reported[T]) reportsAs(name string) bool { return e.name == name || e.tagged == name }

// sumAll reads each instrument once and adds the reading under every name it
// reports as, returning the values sorted by name.
func sumAll[T any](es []reported[T], read func(T) int64) []Value {
	sums := make(map[string]int64, len(es))
	for _, e := range es {
		v := read(e.v)
		sums[e.name] += v
		if e.tagged != "" {
			sums[e.tagged] += v
		}
	}
	out := make([]Value, 0, len(sums))
	for name, v := range sums {
		out = append(out, Value{Name: name, Value: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		owned: make(map[string]*Counter),
		hists: make(map[string]*histogram.Histogram),
	}
}

// Counter returns the registry-owned counter for an untagged name, creating
// it on first use; asking twice returns the same counter. A nil registry
// returns a nil (no-op) counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.owned[name]
	if !ok {
		c = &Counter{}
		r.owned[name] = c
		r.counters = append(r.counters, newReported(c, name, nil))
	}
	return c
}

// Named is one row of a component's metric table: a counter it owns and a
// name that counter reports under once attached.
type Named struct {
	Name string
	C    *Counter
}

// Attach adds a counter the caller owns to the sum reported under name and,
// when tags are given, under Tagged(name, tags...). The caller keeps
// counting into c; the registry only reads it. No-op on a nil registry.
func (r *Registry) Attach(c *Counter, name string, tags ...Tag) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counters = append(r.counters, newReported(c, name, tags))
	r.mu.Unlock()
}

// Gauge registers a read-on-snapshot gauge under name and, when tags are
// given, under Tagged(name, tags...). A name reports the sum of its gauges —
// each LSM store registers its own "lsm.memtable_bytes{region=...}" function
// and "lsm.memtable_bytes" reports the total. No-op on a nil registry.
func (r *Registry) Gauge(name string, fn func() int64, tags ...Tag) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	r.gauges = append(r.gauges, newReported(fn, name, tags))
	r.mu.Unlock()
}

// GaugeOnce registers fn under name only when no gauge reports under that
// name yet, and reports whether it registered. Derived gauges that compute
// ratios over rolled-up counters (write amplification, read amplification)
// use it so opening several stores against one registry does not sum N
// copies of the same ratio.
func (r *Registry) GaugeOnce(name string, fn func() int64) bool {
	if r == nil || fn == nil {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, e := range r.gauges {
		if e.reportsAs(name) {
			return false
		}
	}
	r.gauges = append(r.gauges, newReported(fn, name, nil))
	return true
}

// CounterValue reads one counter name — the sum of the counters reporting
// under it — returning 0 when absent or on a nil registry.
func (r *Registry) CounterValue(name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var sum int64
	for _, e := range r.counters {
		if e.reportsAs(name) {
			sum += e.v.Load()
		}
	}
	return sum
}

// GaugeValue reads one gauge name — the sum of the functions reporting under
// it — returning 0 when absent or on a nil registry. The functions run
// outside the registry lock, so a gauge may itself read other names (derived
// ratio gauges do).
func (r *Registry) GaugeValue(name string) int64 {
	if r == nil {
		return 0
	}
	var sum int64
	for _, e := range r.gaugeList() {
		if e.reportsAs(name) {
			sum += e.v()
		}
	}
	return sum
}

// gaugeList copies the registered gauges, so their functions can run
// outside the registry lock and take their own locks freely.
func (r *Registry) gaugeList() []reported[func() int64] {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]reported[func() int64](nil), r.gauges...)
}

// Histogram returns the named histogram, creating it on first use. A nil
// registry returns nil; prefer Timer for nil-safe duration recording.
func (r *Registry) Histogram(name string) *histogram.Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = histogram.New()
		r.hists[name] = h
	}
	return h
}

// Counters snapshots every counter name, tagged series and their roll-ups
// alike, sorted by name.
func (r *Registry) Counters() []Value {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return sumAll(r.counters, (*Counter).Load)
}

// Gauges reads every gauge name, tagged series and their roll-ups alike,
// sorted by name.
func (r *Registry) Gauges() []Value {
	if r == nil {
		return nil
	}
	return sumAll(r.gaugeList(), func(fn func() int64) int64 { return fn() })
}

// Histograms snapshots every histogram, sorted by name.
func (r *Registry) Histograms() []NamedSnapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	type entry struct {
		name string
		h    *histogram.Histogram
	}
	entries := make([]entry, 0, len(r.hists))
	for name, h := range r.hists {
		entries = append(entries, entry{name, h})
	}
	r.mu.Unlock()

	out := make([]NamedSnapshot, 0, len(entries))
	for _, e := range entries {
		out = append(out, NamedSnapshot{Name: e.name, Snap: e.h.Snapshot()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Summary is a complete point-in-time view of a registry, attached to the
// benchmark result so reports can render engine counters and per-stage
// latency breakdowns.
type Summary struct {
	// Counters and Gauges are scalar readings, sorted by name.
	Counters, Gauges []Value
	// Histograms holds every latency distribution (operation kinds, put-path
	// stages, query templates), sorted by name.
	Histograms []NamedSnapshot
}

// Summary captures the registry's current state; nil on a nil registry.
func (r *Registry) Summary() *Summary {
	if r == nil {
		return nil
	}
	return &Summary{
		Counters:   r.Counters(),
		Gauges:     r.Gauges(),
		Histograms: r.Histograms(),
	}
}

// Histogram returns the named snapshot and whether it exists.
func (s *Summary) Histogram(name string) (histogram.Snapshot, bool) {
	if s == nil {
		return histogram.Snapshot{}, false
	}
	for _, h := range s.Histograms {
		if h.Name == name {
			return h.Snap, true
		}
	}
	return histogram.Snapshot{}, false
}

// Counter returns the named counter value, or 0 when absent.
func (s *Summary) Counter(name string) int64 {
	if s == nil {
		return 0
	}
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}
