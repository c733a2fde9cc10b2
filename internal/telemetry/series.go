package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"tpcxiot/internal/histogram"
)

// OpPoint is one histogram-backed metric's interval statistics within a
// Point: how many events completed during the interval and the latency
// distribution of exactly those events.
type OpPoint struct {
	// Name is the histogram's registry name, e.g. "op.INSERT".
	Name string
	// Count is the number of completions in the interval.
	Count int64
	// Rate is Count divided by the interval length, per second.
	Rate float64
	// Mean and the percentiles describe the interval's latency in
	// nanoseconds.
	Mean          float64
	P50, P95, P99 int64
}

// Point is one sample of the time series: everything that happened between
// the previous tick and this one.
type Point struct {
	// Time is the sample's wall-clock timestamp.
	Time time.Time
	// Elapsed is the time since the ticker started.
	Elapsed time.Duration
	// Interval is the span this point covers (the final point of a run may
	// cover less than the configured period).
	Interval time.Duration
	// Ops holds per-histogram interval statistics, sorted by name. Only
	// histograms with activity in the interval appear.
	Ops []OpPoint
	// Counters holds per-counter interval deltas, sorted by name. Only
	// counters that moved during the interval appear.
	Counters []Value
	// Gauges holds instantaneous gauge readings, sorted by name.
	Gauges []Value
}

// TotalOps sums completions across all "op."-prefixed entries — the
// benchmark operations, excluding pipeline-stage spans.
func (p Point) TotalOps() int64 {
	var n int64
	for _, o := range p.Ops {
		if strings.HasPrefix(o.Name, "op.") {
			n += o.Count
		}
	}
	return n
}

// String renders the point as a YCSB-status-style line:
//
//	10.0s: 5210 ops (521.0 ops/s) | op.INSERT n=5200 p50=0.8ms p95=1.9ms p99=3.1ms | ...
func (p Point) String() string {
	var b strings.Builder
	secs := p.Interval.Seconds()
	var rate float64
	if secs > 0 {
		rate = float64(p.TotalOps()) / secs
	}
	fmt.Fprintf(&b, "%6.1fs: %d ops (%.1f ops/s)", p.Elapsed.Seconds(), p.TotalOps(), rate)
	for _, o := range p.Ops {
		fmt.Fprintf(&b, " | %s n=%d p50=%.1fms p95=%.1fms p99=%.1fms",
			o.Name, o.Count, float64(o.P50)/1e6, float64(o.P95)/1e6, float64(o.P99)/1e6)
	}
	return b.String()
}

// Series is an ordered sequence of Points: the run's time-resolved view.
type Series struct {
	// Interval is the configured sampling period.
	Interval time.Duration
	// Points are the samples in emission order.
	Points []Point
}

// csvHeader is the long-format schema: one row per (interval, metric).
// Counter rows carry the interval delta in events and leave the latency
// columns empty; gauge rows carry the instantaneous value.
const csvHeader = "elapsed_seconds,metric,events,events_per_sec,mean_ns,p50_ns,p95_ns,p99_ns\n"

// WriteCSV writes the series in long format, one row per metric per
// interval, so spreadsheet tools and plotting scripts can pivot freely.
func (s *Series) WriteCSV(w io.Writer) error {
	if _, err := io.WriteString(w, csvHeader); err != nil {
		return err
	}
	for _, p := range s.Points {
		el := p.Elapsed.Seconds()
		for _, o := range p.Ops {
			if _, err := fmt.Fprintf(w, "%.3f,%s,%d,%.1f,%.0f,%d,%d,%d\n",
				el, o.Name, o.Count, o.Rate, o.Mean, o.P50, o.P95, o.P99); err != nil {
				return err
			}
		}
		for _, c := range p.Counters {
			var rate float64
			if secs := p.Interval.Seconds(); secs > 0 {
				rate = float64(c.Value) / secs
			}
			if _, err := fmt.Fprintf(w, "%.3f,%s,%d,%.1f,,,,\n",
				el, c.Name, c.Value, rate); err != nil {
				return err
			}
		}
		for _, g := range p.Gauges {
			if _, err := fmt.Fprintf(w, "%.3f,%s,%d,,,,,\n", el, g.Name, g.Value); err != nil {
				return err
			}
		}
	}
	return nil
}

// GaugeStats returns the peak and mean of one gauge across the series —
// the report's "heap peaked at X, averaged Y" lines. The mean is over the
// points where the gauge appears; ok is false when it never does.
func (s *Series) GaugeStats(name string) (peak int64, mean float64, ok bool) {
	var sum, n int64
	for _, p := range s.Points {
		for _, g := range p.Gauges {
			if g.Name != name {
				continue
			}
			if !ok || g.Value > peak {
				peak = g.Value
			}
			sum += g.Value
			n++
			ok = true
		}
	}
	if n > 0 {
		mean = float64(sum) / float64(n)
	}
	return peak, mean, ok
}

// completeIntervalFraction is the floor below which a point counts as a
// partial interval. Regular ticks cover at least the configured period
// (time.Ticker never fires early), so only the tail point emitted by
// Stop/Snapshot — which covers whatever remains since the last tick — falls
// under it.
const completeIntervalFraction = 0.9

// IsComplete reports whether p covers a full sampling period. The final
// point of a run spans only the tail since the last tick; folding it into
// per-interval rate statistics makes a short tail read as a throughput
// collapse, so peak/trough summaries and run-validity evaluation operate on
// complete intervals only.
func (s *Series) IsComplete(p Point) bool {
	return p.Interval >= time.Duration(completeIntervalFraction*float64(s.Interval))
}

// Complete returns the points that cover a full sampling period.
func (s *Series) Complete() []Point {
	out := make([]Point, 0, len(s.Points))
	for _, p := range s.Points {
		if s.IsComplete(p) {
			out = append(out, p)
		}
	}
	return out
}

// PeakRate returns the highest and lowest per-interval total op rates over
// the complete intervals, for compact report summaries. The trailing
// partial interval is excluded — a 0.3 s tail at steady load would
// otherwise report a bogus trough. Zeroes when no interval is complete.
func (s *Series) PeakRate() (peak, trough float64) {
	first := true
	for _, p := range s.Complete() {
		secs := p.Interval.Seconds()
		if secs <= 0 {
			continue
		}
		r := float64(p.TotalOps()) / secs
		if first {
			peak, trough = r, r
			first = false
			continue
		}
		if r > peak {
			peak = r
		}
		if r < trough {
			trough = r
		}
	}
	return peak, trough
}

// Ticker samples a Registry on a fixed period, converting cumulative
// counters and histograms into per-interval Points. Stop emits one final
// point covering the tail since the last tick, so even runs shorter than
// one period produce a series.
type Ticker struct {
	reg      *Registry
	interval time.Duration
	onPoint  func(Point)

	// mu guards the sampling state below: sample runs on the ticker
	// goroutine, but Snapshot may be called from a signal handler while
	// the run is still in flight.
	mu       sync.Mutex
	start    time.Time
	lastTick time.Time
	prevHist map[string]histogram.Snapshot
	prevCtr  map[string]int64
	series   *Series

	stop    chan struct{}
	stopped chan struct{}
}

// NewTicker builds a ticker over reg. interval must be positive. onPoint,
// when non-nil, receives each point as it is emitted (the driver uses it to
// stream YCSB-style status lines); it is called from the ticker goroutine.
func NewTicker(reg *Registry, interval time.Duration, onPoint func(Point)) *Ticker {
	if interval <= 0 {
		interval = time.Second
	}
	return &Ticker{
		reg:      reg,
		interval: interval,
		onPoint:  onPoint,
		prevHist: make(map[string]histogram.Snapshot),
		prevCtr:  make(map[string]int64),
		series:   &Series{Interval: interval},
		stop:     make(chan struct{}),
		stopped:  make(chan struct{}),
	}
}

// Start baselines the registry and begins sampling. Call Stop exactly once
// afterwards.
func (t *Ticker) Start() {
	t.start = time.Now()
	t.lastTick = t.start
	t.baseline()
	go t.loop()
}

// baseline records current cumulative state so the first interval reports
// only activity after Start.
func (t *Ticker) baseline() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, h := range t.reg.Histograms() {
		t.prevHist[h.Name] = h.Snap
	}
	for _, c := range t.reg.Counters() {
		t.prevCtr[c.Name] = c.Value
	}
}

func (t *Ticker) loop() {
	defer close(t.stopped)
	tick := time.NewTicker(t.interval)
	defer tick.Stop()
	for {
		select {
		case <-t.stop:
			return
		case now := <-tick.C:
			t.sample(now)
		}
	}
}

// sample emits one point covering [lastTick, now).
func (t *Ticker) sample(now time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sampleLocked(now)
}

func (t *Ticker) sampleLocked(now time.Time) {
	p := Point{
		Time:     now,
		Elapsed:  now.Sub(t.start),
		Interval: now.Sub(t.lastTick),
	}
	t.lastTick = now
	secs := p.Interval.Seconds()

	for _, h := range t.reg.Histograms() {
		delta := h.Snap.Sub(t.prevHist[h.Name])
		t.prevHist[h.Name] = h.Snap
		if delta.Count() == 0 {
			continue
		}
		op := OpPoint{
			Name:  h.Name,
			Count: delta.Count(),
			Mean:  delta.Mean(),
			P50:   delta.Percentile(50),
			P95:   delta.Percentile(95),
			P99:   delta.Percentile(99),
		}
		if secs > 0 {
			op.Rate = float64(op.Count) / secs
		}
		p.Ops = append(p.Ops, op)
	}
	for _, c := range t.reg.Counters() {
		delta := c.Value - t.prevCtr[c.Name]
		t.prevCtr[c.Name] = c.Value
		if delta != 0 {
			p.Counters = append(p.Counters, Value{Name: c.Name, Value: delta})
		}
	}
	// Intervals with no activity at all are elided: they carry no signal
	// and would dominate the series of an idle tail.
	if len(p.Ops) == 0 && len(p.Counters) == 0 {
		return
	}
	p.Gauges = t.reg.Gauges()
	sort.Slice(p.Ops, func(i, j int) bool { return p.Ops[i].Name < p.Ops[j].Name })

	t.series.Points = append(t.series.Points, p)
	if t.onPoint != nil {
		t.onPoint(p)
	}
}

// Stop halts sampling, emits a final tail point when any activity happened
// since the last tick, and returns the collected series.
func (t *Ticker) Stop() *Series {
	close(t.stop)
	<-t.stopped
	t.sample(time.Now())
	return t.series
}

// Snapshot samples the tail since the last tick and returns a copy of the
// series so far, without stopping the ticker. Safe to call concurrently with
// sampling — a SIGINT handler uses it to flush the partial time series of an
// interrupted run.
func (t *Ticker) Snapshot() *Series {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sampleLocked(time.Now())
	return &Series{
		Interval: t.series.Interval,
		Points:   append([]Point(nil), t.series.Points...),
	}
}
