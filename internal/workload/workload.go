// Package workload implements the TPCx-IoT workload: sensor-data ingestion
// for simulated power substations and the four concurrent dashboard query
// templates, layered on the ycsb framework exactly as the paper describes
// (Sections III-C and III-D).
//
// One Instance corresponds to one TPCx-IoT driver instance, which simulates
// one power substation with 200 sensors. Threads within the instance own
// disjoint sensor subsets and interleave inserts with queries at the
// specified ratio (five queries per 10 000 sensor readings).
package workload

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"tpcxiot/internal/gen"
	"tpcxiot/internal/hbase"
	"tpcxiot/internal/kvp"
	"tpcxiot/internal/lsm"
	"tpcxiot/internal/sensors"
	"tpcxiot/internal/telemetry"
	"tpcxiot/internal/ycsb"
)

// Specification constants.
const (
	// ReadingsPerQueryPair is the ingest-to-query ratio: the paper executes
	// five queries for every 10 000 sensor readings, i.e. one per 2 000.
	ReadingsPerQueryPair = 2000

	// RecentWindow is the "last 5 seconds" interval every query reads.
	RecentWindow = 5 * time.Second

	// HistoryWindow is the range from which the comparison interval is
	// drawn: a random 5-second window within the previous 1 800 seconds.
	HistoryWindow = 1800 * time.Second

	// DefaultThreads is the worker-thread count per driver instance; the
	// paper's Figure 8 discussion (64 drivers spawning 640 threads) implies
	// ten threads per driver.
	DefaultThreads = 10
)

// SubstationName renders the canonical substation key for driver instance i.
func SubstationName(i int) string {
	return fmt.Sprintf("substation-%05d", i)
}

// SubstationNames returns the keys for driver instances 0..n-1.
func SubstationNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = SubstationName(i)
	}
	return out
}

// SplitKeys returns table pre-split points that give every substation its
// own region: one boundary at each substation's key prefix except the first.
func SplitKeys(substations []string) [][]byte {
	var out [][]byte
	for i, s := range substations {
		if i == 0 {
			continue
		}
		out = append(out, kvp.SensorPrefix(s, "")[:len(s)+1])
	}
	return out
}

// KVPShare implements Equation 3: the number of kvps driver instance i
// (1-based, i in [1, p]) must generate when k total kvps are spread over p
// instances. The final instance absorbs the remainder.
func KVPShare(k int64, p int, i int) int64 {
	if p <= 0 || i < 1 || i > p {
		return 0
	}
	share := k / int64(p)
	if i == p {
		share += k % int64(p)
	}
	return share
}

// QueryKind names the query templates: the four dashboard templates of
// Section III-D plus the two analytic templates (downsampling and
// group-by-window counting, the first-class IoT query shapes of
// IoTDB-Benchmark). All six run through RunWindowQuery (query.go).
type QueryKind int

// The templates. The first dashboardKinds are the paper's rotation; the
// analytic templates join the rotation only when InstanceConfig.Analytics
// is set.
const (
	QueryMax QueryKind = iota
	QueryMin
	QueryAvg
	QueryCount
	QueryDownsample  // per-second averages over the trailing minute
	QueryWindowCount // per-5s reading counts over the trailing 5 minutes
	queryKinds
)

// dashboardKinds is the size of the default template rotation (the paper's
// four dashboard templates).
const dashboardKinds = QueryDownsample

// Analytic template windowing.
const (
	// DownsampleSpan and DownsampleWindow shape the downsampling template:
	// per-DownsampleWindow averages over the trailing DownsampleSpan.
	DownsampleSpan   = 60 * time.Second
	DownsampleWindow = 1 * time.Second
	// WindowCountSpan and WindowCountWindow shape the group-by-window
	// template: per-WindowCountWindow reading counts over the trailing
	// WindowCountSpan.
	WindowCountSpan   = 300 * time.Second
	WindowCountWindow = 5 * time.Second
)

// String names the template.
func (q QueryKind) String() string {
	switch q {
	case QueryMax:
		return "max-reading"
	case QueryMin:
		return "min-reading"
	case QueryAvg:
		return "average-reading"
	case QueryCount:
		return "reading-count"
	case QueryDownsample:
		return "downsample"
	case QueryWindowCount:
		return "window-count"
	default:
		return fmt.Sprintf("QueryKind(%d)", int(q))
	}
}

// Aggregate is the dashboard value computed over one 5-second interval.
type Aggregate struct {
	// Rows is the number of readings in the interval.
	Rows int
	// Max, Min, Avg are reading statistics; zero when Rows is 0.
	Max, Min, Avg float64
}

// QueryResult compares the aggregates of the two intervals, as every
// template does.
type QueryResult struct {
	Kind       QueryKind
	Substation string
	Sensor     string
	// Recent covers [now-5s, now); Historical a random 5 s window from the
	// previous 1 800 s.
	Recent, Historical Aggregate
}

// Value returns the dashboard comparison value for the template: the
// recent-interval statistic minus the historical one (count difference for
// QueryCount).
func (r QueryResult) Value() float64 {
	switch r.Kind {
	case QueryMax:
		return r.Recent.Max - r.Historical.Max
	case QueryMin:
		return r.Recent.Min - r.Historical.Min
	case QueryAvg:
		return r.Recent.Avg - r.Historical.Avg
	default:
		return float64(r.Recent.Rows - r.Historical.Rows)
	}
}

// Sequencer allocates collision-free per-sensor timestamps. Readings are
// keyed by (substation, sensor, unix-ms timestamp); at laptop-scale ingest
// a thread outruns the wall clock and bumps timestamps ahead of it, and a
// later workload execution starting from the wall clock again would reuse
// the bumped range — silently overwriting rows and undercounting the
// stored-rows check. A Sequencer shared across executions (the driver wires
// one through warmup and measured runs) remembers each sensor's last issued
// timestamp, so every generated key is unique for the process lifetime:
// next = max(wallMS, last+1).
//
// Threads own disjoint sensors, so the per-sensor counters are effectively
// uncontended; the CAS loop exists for correctness when a sensor is shared.
type Sequencer struct {
	mu   sync.Mutex
	last map[string]*atomic.Int64
}

// NewSequencer returns an empty timestamp sequencer.
func NewSequencer() *Sequencer {
	return &Sequencer{last: make(map[string]*atomic.Int64)}
}

// counter returns the sensor's last-issued-timestamp cell, creating it on
// first use. Threads resolve their sensors' cells once at NewThread.
func (q *Sequencer) counter(substation, sensor string) *atomic.Int64 {
	key := substation + "\x00" + sensor
	q.mu.Lock()
	defer q.mu.Unlock()
	c, ok := q.last[key]
	if !ok {
		c = new(atomic.Int64)
		q.last[key] = c
	}
	return c
}

// next issues the sensor's next timestamp: the wall clock when it has moved
// past the last issued value, otherwise last+1.
func nextTimestamp(c *atomic.Int64, wallMS int64) int64 {
	for {
		last := c.Load()
		ts := wallMS
		if ts <= last {
			ts = last + 1
		}
		if c.CompareAndSwap(last, ts) {
			return ts
		}
	}
}

// InstanceStats aggregates what one driver instance did, beyond the latency
// measurement the ycsb layer records.
type InstanceStats struct {
	// Inserted is the number of sensor readings ingested.
	Inserted int64
	// Queries is the number of dashboard queries executed.
	Queries int64
	// RowsAggregated is the total readings aggregated from the RECENT
	// interval across all queries.
	RowsAggregated int64
	// HistoricalRows is the same for the random historical interval.
	HistoricalRows int64
	// Shed counts operations that met a flush load-shed by the cluster
	// after the client exhausted its retries: an insert, or a query whose
	// client had a shed flush to report — that query runs once more and is
	// served. The shed batch stays buffered on the client, so the readings
	// are deferred to a later flush — counted here, not lost.
	Shed int64
	// AnalyticQueries counts executions of the analytic templates
	// (downsample, window-count); AnalyticWindows is the window partials
	// they returned. Tracked separately from Queries so the dashboard
	// validity metrics (AvgRowsPerQuery) keep their Figure 12 meaning.
	AnalyticQueries int64
	// AnalyticWindows counts window partials returned by analytic queries.
	AnalyticWindows int64
	// PushdownRows counts rows the binding's Aggregator reduced inside the
	// storage tier (rows that never crossed the client boundary as 1 KiB
	// pairs); zero on a binding without the capability.
	PushdownRows int64
}

// AvgRowsPerQuery is Figure 12's y-axis: mean readings aggregated per
// query over both 5-second intervals. A benchmark run is invalid below
// 200, which is Equation 2's 100-reading floor applied to each interval.
func (s InstanceStats) AvgRowsPerQuery() float64 {
	if s.Queries == 0 {
		return 0
	}
	return float64(s.RowsAggregated+s.HistoricalRows) / float64(s.Queries)
}

// InstanceConfig configures one driver instance (one simulated substation).
type InstanceConfig struct {
	// Substation is the substation key. Required.
	Substation string
	// Readings is SR, the number of sensor readings to generate (the
	// instance's KVPShare). Required.
	Readings int64
	// Threads is the worker count; informational here (the ycsb RunConfig
	// carries the actual count) — retained for report rendering.
	Threads int
	// Seed makes the generated data deterministic.
	Seed uint64
	// Now supplies the clock; defaults to time.Now. The testbed injects a
	// virtual clock.
	Now func() time.Time
	// DisableQueries turns off query injection (pure-ingest experiments
	// such as Figure 8's generation-speed measurement).
	DisableQueries bool
	// Analytics adds the downsampling and group-by-window templates to the
	// query rotation.
	Analytics bool
	// Sequencer allocates per-sensor timestamps. Share one across workload
	// executions (the driver does) so keys never collide between runs; nil
	// gives the instance a private one.
	Sequencer *Sequencer
	// Registry, when non-nil, times each dashboard query template in the
	// histograms "query.max-reading", "query.min-reading",
	// "query.average-reading" and "query.reading-count".
	Registry *telemetry.Registry
}

// Instance is one TPCx-IoT driver instance: a ycsb.Workload that generates
// the substation's sensor readings and interleaved dashboard queries.
type Instance struct {
	cfg         InstanceConfig
	catalog     []sensors.Sensor
	clock       func() time.Time
	queryTimers [queryKinds]*telemetry.Timer
	shedC       *telemetry.Counter // workload.shed_ops
	inserted    atomic.Int64
	queries     atomic.Int64
	aggRows     atomic.Int64
	histRows    atomic.Int64
	shed        atomic.Int64
	analyticQ   atomic.Int64
	analyticW   atomic.Int64
	pushedRows  atomic.Int64
}

// NewInstance validates the configuration and builds the driver instance.
func NewInstance(cfg InstanceConfig) (*Instance, error) {
	if cfg.Substation == "" {
		return nil, fmt.Errorf("workload: Substation is required")
	}
	if err := (kvp.Key{Substation: cfg.Substation, Sensor: "x", Timestamp: 0}).Validate(); err != nil {
		return nil, fmt.Errorf("workload: bad substation key: %w", err)
	}
	if cfg.Readings <= 0 {
		return nil, fmt.Errorf("workload: Readings must be positive, got %d", cfg.Readings)
	}
	if cfg.Threads <= 0 {
		cfg.Threads = DefaultThreads
	}
	clock := cfg.Now
	if clock == nil {
		clock = time.Now
	}
	if cfg.Sequencer == nil {
		cfg.Sequencer = NewSequencer()
	}
	in := &Instance{cfg: cfg, catalog: sensors.Catalogue(), clock: clock}
	for q := QueryKind(0); q < queryKinds; q++ {
		in.queryTimers[q] = cfg.Registry.Timer("query." + q.String())
	}
	in.shedC = cfg.Registry.Counter("workload.shed_ops")
	return in, nil
}

// Stats snapshots the instance's progress counters.
func (in *Instance) Stats() InstanceStats {
	return InstanceStats{
		Inserted:        in.inserted.Load(),
		Queries:         in.queries.Load(),
		RowsAggregated:  in.aggRows.Load(),
		HistoricalRows:  in.histRows.Load(),
		Shed:            in.shed.Load(),
		AnalyticQueries: in.analyticQ.Load(),
		AnalyticWindows: in.analyticW.Load(),
		PushdownRows:    in.pushedRows.Load(),
	}
}

// Substation returns the configured substation key.
func (in *Instance) Substation() string { return in.cfg.Substation }

// Readings returns the configured SR.
func (in *Instance) Readings() int64 { return in.cfg.Readings }

// NewThread implements ycsb.Workload. Thread t of n owns the sensors whose
// catalogue index is congruent to t mod n and generates its share of SR.
func (in *Instance) NewThread(id, of int) ycsb.ThreadWorkload {
	quota := in.cfg.Readings / int64(of)
	if int64(id) < in.cfg.Readings%int64(of) {
		quota++
	}
	var mine []sensors.Sensor
	for i := id; i < len(in.catalog); i += of {
		mine = append(mine, in.catalog[i])
	}
	rng := gen.NewRNG(in.cfg.Seed ^ (uint64(id)+1)*0x9e3779b97f4a7c15)
	t := &instanceThread{
		inst:    in,
		rng:     rng,
		quota:   quota,
		sensors: mine,
		readers: make([]*sensors.Reader, len(mine)),
		seq:     make([]*atomic.Int64, len(mine)),
	}
	for i, s := range mine {
		t.readers[i] = sensors.NewReader(s, rng.Uint64())
		t.seq[i] = in.cfg.Sequencer.counter(in.cfg.Substation, s.Key)
	}
	return t
}

type instanceThread struct {
	inst    *Instance
	rng     *gen.RNG
	quota   int64
	done    int64
	sensors []sensors.Sensor
	readers []*sensors.Reader
	seq     []*atomic.Int64 // per-sensor timestamp cells (see Sequencer)
	cursor  int             // round-robin sensor index

	sinceQuery int64
	keyBuf     []byte
	valBuf     []byte
	padBuf     []byte
}

// Next implements ycsb.ThreadWorkload: mostly inserts, with one dashboard
// query injected after every ReadingsPerQueryPair readings.
func (t *instanceThread) Next(db ycsb.DB) (ycsb.OpKind, bool, error) {
	if !t.inst.cfg.DisableQueries && t.sinceQuery >= ReadingsPerQueryPair {
		// The query owed for the last full batch of readings fires before
		// the quota check so the final batch is also followed by its query.
		t.sinceQuery = 0
		return ycsb.OpQuery, false, t.runQuery(db)
	}
	if t.done >= t.quota {
		return 0, true, nil
	}
	t.done++
	t.sinceQuery++
	return ycsb.OpInsert, false, t.insert(db)
}

func (t *instanceThread) insert(db ycsb.DB) error {
	if len(t.sensors) == 0 {
		return fmt.Errorf("workload: thread owns no sensors (more threads than sensors)")
	}
	i := t.cursor
	t.cursor = (t.cursor + 1) % len(t.sensors)
	s := t.sensors[i]

	// The sequencer keeps per-sensor keys unique at high generation rates
	// AND across workload executions: a previous run that outran the wall
	// clock leaves its high-water mark behind, so this run continues past it
	// instead of overwriting.
	ts := nextTimestamp(t.seq[i], t.inst.clock().UnixMilli())

	key := kvp.Key{Substation: t.inst.cfg.Substation, Sensor: s.Key, Timestamp: ts}
	reading := t.readers[i].NextString()
	unit := s.Unit()
	padLen, err := kvp.PaddingFor(key, reading, unit)
	if err != nil {
		return err
	}
	if cap(t.padBuf) < padLen {
		t.padBuf = make([]byte, padLen)
	}
	pad := gen.Text(t.rng, t.padBuf[:padLen])

	t.keyBuf = key.Append(t.keyBuf[:0])
	v := kvp.Value{Reading: reading, Unit: unit, Padding: pad}
	t.valBuf = v.Append(t.valBuf[:0])

	if err := db.Insert(t.keyBuf, t.valBuf); err != nil && !t.shed(err) {
		return fmt.Errorf("workload: insert: %w", err)
	}
	t.inst.inserted.Add(1)
	return nil
}

// shed reports whether err is a flush the cluster shed even after the
// client's retries, and counts it. The client keeps the batch buffered and
// ships it on a later flush, so the readings are deferred, not lost: the run
// keeps generating. Graceful degradation, not a run abort.
func (t *instanceThread) shed(err error) bool {
	if !errors.Is(err, hbase.ErrOverloaded) {
		return false
	}
	t.inst.shed.Add(1)
	t.inst.shedC.Inc()
	return true
}

// serve runs a query's reads. A client may report a shed flush on the read
// instead of running it; the shed batch is back in the client's buffer, and
// the query runs once more, its read flushing that region's batch first. A
// second shed — the read's own flush exhausting its retries — fails the
// query.
func (t *instanceThread) serve(query func() error) error {
	err := query()
	if t.shed(err) {
		err = query()
	}
	return err
}

func (t *instanceThread) runQuery(db ycsb.DB) error {
	s := t.sensors[t.rng.Intn(len(t.sensors))]
	rotation := int(dashboardKinds)
	if t.inst.cfg.Analytics {
		rotation = int(queryKinds)
	}
	kind := QueryKind(t.rng.Intn(rotation))
	now := t.inst.clock()

	if kind >= dashboardKinds {
		return t.runAnalyticQuery(db, kind, s.Key, now)
	}

	// Random 5 s window inside the previous 1 800 s (excluding the recent
	// window itself).
	span := (HistoryWindow - RecentWindow).Milliseconds()
	offset := t.rng.Int63n(span) + RecentWindow.Milliseconds()
	histStart := now.Add(-time.Duration(offset) * time.Millisecond)

	sp := t.inst.queryTimers[kind].Start()
	var res QueryResult
	err := t.serve(func() (err error) {
		res, err = RunQuery(db, kind, t.inst.cfg.Substation, s.Key, now, histStart)
		return err
	})
	sp.End()
	if err != nil {
		return err
	}
	t.notePushed(db, int64(res.Recent.Rows+res.Historical.Rows))
	t.inst.queries.Add(1)
	t.inst.aggRows.Add(int64(res.Recent.Rows))
	t.inst.histRows.Add(int64(res.Historical.Rows))
	return nil
}

// notePushed counts rows a query reduced inside the storage tier. On a
// binding without Aggregator every row crossed to the client instead, so
// nothing is counted.
func (t *instanceThread) notePushed(db ycsb.DB, rows int64) {
	if _, ok := db.(Aggregator); ok {
		t.inst.pushedRows.Add(rows)
	}
}

// runAnalyticQuery executes one analytic template (downsample or
// window-count) over the sensor's trailing span.
func (t *instanceThread) runAnalyticQuery(db ycsb.DB, kind QueryKind, sensor string, now time.Time) error {
	span, window := DownsampleSpan, DownsampleWindow
	funcs := lsm.AggCount | lsm.AggSum | lsm.AggAvg
	if kind == QueryWindowCount {
		span, window = WindowCountSpan, WindowCountWindow
		funcs = lsm.AggCount
	}
	nowMS := now.UnixMilli()
	sp := t.inst.queryTimers[kind].Start()
	var res lsm.AggResult
	err := t.serve(func() (err error) {
		res, err = RunWindowQuery(db, t.inst.cfg.Substation, sensor,
			nowMS-span.Milliseconds(), nowMS, window.Milliseconds(), funcs)
		return err
	})
	sp.End()
	if err != nil {
		return err
	}
	t.inst.analyticQ.Add(1)
	t.inst.analyticW.Add(int64(len(res.Windows)))
	t.notePushed(db, res.RowsFolded)
	return nil
}
