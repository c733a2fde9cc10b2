// Package replication implements the quorum-acknowledged replication
// pipeline that the TPCx-IoT prerequisite check verifies.
//
// In the paper's SUT, durability comes from HDFS: every WAL block and HFile
// is stored on three data nodes, and the benchmark driver's "data
// replication check" aborts the run if the factor is below three. This
// package models the same guarantee one level up: each region has a primary
// applier and replicaFactor-1 replica appliers on distinct nodes.
//
// Writes are acknowledged at quorum, not at full fan-out. Every batch is
// assigned a sequence number and enqueued — atomically, in one critical
// section — onto a bounded per-member catch-up queue. One long-lived worker
// per member drains its queue strictly in sequence order (the member's WAL
// order), so every member applies the same batches in the same order. The
// queues share each lsm.Batch, already laid out as the WAL record that logs
// it, so every copy logs the same bytes.
// ApplyBatch returns once quorum members — always including the
// primary — have durably applied the batch; members still behind (the
// stragglers) catch up asynchronously from their queues, off the caller's
// critical path.
//
// Watermarks make the divergence observable; Stats snapshots them as
// GroupStats:
//
//   - each member's applied high-water mark (the last sequence it durably
//     applied; GroupStats.Applied);
//   - the commit watermark (the highest sequence acknowledged at quorum;
//     GroupStats.Commit).
//
// Because the primary is required for quorum, primary.applied >= commit
// always holds. Every read is served by the primary, so reads see every
// acknowledged write; replicas exist for durability only.
//
// The catch-up queue is bounded. When a running member's queue is full the
// group refuses new batches with ErrCatchUpFull — a retryable overload
// signal the server layer converts into a load-shed response — so a stalled
// straggler costs bounded memory and visible backpressure instead of
// unbounded queue growth. A member whose apply fails stops draining (its
// queue and watermark freeze, preserving its WAL order) and fails every
// later batch, which the rest of the quorum keeps acknowledging;
// RestartMember re-attaches a recovered applier and replays the retained
// queue from the watermark. A stopped member retains at most MaxQueue
// batches: the next one drops its queue and marks it as needing a rebuild
// (GroupStats.Rebuild), which RestartMember refuses with ErrNeedsRebuild.
package replication

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"tpcxiot/internal/lsm"
	"tpcxiot/internal/telemetry"
)

// DefaultFactor is the replication factor TPCx-IoT requires.
const DefaultFactor = 3

// DefaultMaxQueue bounds each member's catch-up queue (in batches) unless
// Options says otherwise.
const DefaultMaxQueue = 256

// Sentinel errors.
var (
	ErrShortPipeline = errors.New("replication: fewer appliers than the factor requires")
	// ErrCatchUpFull is returned when a member's bounded catch-up queue is
	// full: the group refuses the batch rather than queueing unboundedly.
	// Retryable — the server layer surfaces it as a load-shed.
	ErrCatchUpFull = errors.New("replication: catch-up queue full")
	// ErrClosed is returned by writes against a closed group.
	ErrClosed = errors.New("replication: group closed")
	// ErrMemberRunning is returned by RestartMember for a member whose
	// worker is still draining.
	ErrMemberRunning = errors.New("replication: member worker still running")
	// ErrNeedsRebuild is returned by RestartMember for a stopped member
	// that missed more batches than its queue retains.
	ErrNeedsRebuild = errors.New("replication: member missed batches past its catch-up bound and needs a rebuild")
)

// Applier is one pipeline member: it durably applies a whole batch in one
// engine round (the batch appended as one WAL record, one memtable
// critical section) under the operation's trace span, so each member's
// engine work shows up in the span tree. Every member is handed the same
// *lsm.Batch, so every copy logs the same record bytes; an applier only
// reads it. hbase.Region is the production member. The zero TSpan is inert,
// so untraced batches take the same call. A wrapper around a member must
// forward parent, or the spans beneath it vanish.
type Applier interface {
	ApplyBatch(parent telemetry.TSpan, b *lsm.Batch) error
}

// Options configures a pipeline.
type Options struct {
	// Quorum is how many members (always including the primary) must
	// durably apply a batch before it is acknowledged. 0 selects the
	// majority, ⌈(n+1)/2⌉. Clamped to [1, members].
	Quorum int
	// MaxQueue bounds each member's catch-up queue in batches; a running
	// member's full queue makes the group refuse writes with
	// ErrCatchUpFull. <= 0 selects DefaultMaxQueue.
	MaxQueue int
}

// MajorityQuorum is ⌈(n+1)/2⌉ for n members: 1→1, 2→2, 3→2, 4→3, 5→3.
func MajorityQuorum(members int) int { return members/2 + 1 }

// groupMetrics holds the pipeline's instruments, all nil-safe.
type groupMetrics struct {
	acks       *telemetry.Counter // replication.acks: per-member durable write applies
	quorumAcks *telemetry.Counter // replication.quorum_acks: batches acknowledged at quorum
	catchup    *telemetry.Counter // replication.catchup_batches: member batch applies after the ack
	queueFull  *telemetry.Counter // replication.catchup_full: batches refused on a full queue
	quorumT    *telemetry.Timer   // replication.quorum_ack: batch submit → quorum
	fullT      *telemetry.Timer   // replication.full_ack: batch submit → all members
}

// Group is a quorum-acknowledged replication pipeline. See the package
// comment for the model. Safe for concurrent use.
type Group struct {
	members  []*member
	quorum   int
	maxQueue int
	wg       sync.WaitGroup

	mu      sync.Mutex // serializes sequence assignment + fan-out enqueue
	nextSeq uint64     // last assigned sequence number
	closed  bool

	commit atomic.Uint64 // highest sequence acknowledged at quorum

	met groupMetrics
}

// member is one pipeline member: an applier, its bounded catch-up queue,
// and the worker state draining it.
type member struct {
	idx int

	mu      sync.Mutex
	cond    *sync.Cond      // signals the worker: work queued or closing
	app     Applier         // swappable via RestartMember
	queue   []*pendingBatch // WAL order; head is in-flight or next to apply
	running bool            // worker goroutine alive
	closing bool
	err     error         // first apply error; non-nil ⇒ worker stopped
	rebuild bool          // stopped and missed a batch past maxQueue
	advance chan struct{} // closed+replaced on watermark advance or stop

	applied atomic.Uint64 // high-water mark: last sequence durably applied
}

// bumpLocked wakes Quiesce waiters. Caller holds m.mu.
func (m *member) bumpLocked() {
	close(m.advance)
	m.advance = make(chan struct{})
}

// pendingBatch is one replicated batch in flight: the batch every member's
// queue points at, the trace parent, and the shared acknowledgement state.
// The group retains the batch until the slowest member applied it — callers
// must not add to it after submitting it.
type pendingBatch struct {
	seq    uint64
	batch  *lsm.Batch
	parent telemetry.TSpan
	st     *ackState
}

// ackState tracks one batch's progress toward quorum. Each member reports
// exactly once (replays after RestartMember are suppressed); the batch
// resolves on the first of: primary failed, quorum reached (primary
// included), or quorum arithmetically unreachable.
type ackState struct {
	members int
	quorum  int

	mu       sync.Mutex
	reported []bool
	reports  int
	acked    int // successful member applies
	failures int
	primary  int8 // 0 pending, 1 ok, 2 failed
	errIdx   int
	err      error // lowest-indexed member error at resolution
	resolved bool
	failed   bool
	done     chan struct{}

	quorumSpan telemetry.Span // started at submit, ended at quorum
	fullSpan   telemetry.Span // started at submit, ended when all members applied
}

// reportSuccess records one member's durable apply. It returns whether the
// batch had already resolved (the apply was catch-up work, off the critical
// path). Duplicate reports (queue replay after restart) are ignored.
func (st *ackState) reportSuccess(idx int) (late bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.reported[idx] {
		return st.resolved
	}
	st.reported[idx] = true
	st.reports++
	st.acked++
	if idx == 0 {
		st.primary = 1
	}
	late = st.resolved
	st.resolveLocked()
	if st.reports == st.members && st.failures == 0 {
		st.fullSpan.End()
	}
	return late
}

// reportFailure records one member's apply failure (or its standing failure,
// for batches routed to a stopped member).
func (st *ackState) reportFailure(idx int, err error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.reported[idx] {
		return
	}
	st.reported[idx] = true
	st.reports++
	st.failures++
	if idx == 0 {
		st.primary = 2
	}
	if st.err == nil || idx < st.errIdx {
		st.err, st.errIdx = err, idx
	}
	st.resolveLocked()
}

// resolveLocked applies the resolution rules. Caller holds st.mu.
func (st *ackState) resolveLocked() {
	if st.resolved {
		return
	}
	switch {
	case st.primary == 2:
		// The primary is required for quorum; its failure fails the batch.
		st.resolved, st.failed = true, true
	case st.primary == 1 && st.acked >= st.quorum:
		st.resolved = true
		st.quorumSpan.End()
	case st.failures > st.members-st.quorum:
		// Too many members failed for quorum to ever form.
		st.resolved, st.failed = true, true
	default:
		return
	}
	close(st.done)
}

// NewGroup builds a pipeline. The first member is the primary; the number
// of members is the replication factor. The zero Options select a majority
// quorum and DefaultMaxQueue. Member workers start immediately — Close the
// group to stop them and drain the catch-up queues.
func NewGroup(o Options, primary Applier, replicas ...Applier) *Group {
	n := 1 + len(replicas)
	if o.Quorum <= 0 {
		o.Quorum = MajorityQuorum(n)
	}
	if o.Quorum > n {
		o.Quorum = n
	}
	if o.MaxQueue <= 0 {
		o.MaxQueue = DefaultMaxQueue
	}
	g := &Group{quorum: o.Quorum, maxQueue: o.MaxQueue}
	apps := append([]Applier{primary}, replicas...)
	for i, app := range apps {
		m := &member{idx: i, app: app, running: true, advance: make(chan struct{})}
		m.cond = sync.NewCond(&m.mu)
		g.members = append(g.members, m)
	}
	g.wg.Add(len(g.members))
	for _, m := range g.members {
		go g.runMember(m)
	}
	return g
}

// runMember drains one member's catch-up queue in sequence order. The head
// batch stays queued while it applies, so a worker that dies (apply error)
// leaves the queue positioned exactly at the watermark for replay.
func (g *Group) runMember(m *member) {
	defer g.wg.Done()
	for {
		m.mu.Lock()
		for len(m.queue) == 0 && !m.closing {
			m.cond.Wait()
		}
		if len(m.queue) == 0 {
			m.running = false
			m.bumpLocked()
			m.mu.Unlock()
			return
		}
		pb := m.queue[0]
		app := m.app
		m.mu.Unlock()

		var sp telemetry.TSpan
		if pb.parent.Traced() {
			sp = pb.parent.Child("replicate." + strconv.Itoa(m.idx))
		}
		err := app.ApplyBatch(sp, pb.batch)
		sp.End()

		if err != nil {
			m.mu.Lock()
			m.err = err
			m.running = false
			queued := append([]*pendingBatch(nil), m.queue...)
			m.bumpLocked()
			m.mu.Unlock()
			// Every retained batch fails for quorum purposes; the queue
			// itself is kept for replay after RestartMember.
			for _, qb := range queued {
				qb.st.reportFailure(m.idx, err)
			}
			return
		}

		m.applied.Store(pb.seq)
		// acks counts each member's durable apply of each row.
		g.met.acks.Add(int64(pb.batch.Len()))
		m.mu.Lock()
		// The array outlives the slice: clear the slot, or it keeps the
		// batch, and the memtable bytes it holds, until the array is
		// replaced.
		m.queue[0] = nil
		m.queue = m.queue[1:]
		m.bumpLocked()
		m.mu.Unlock()
		if late := pb.st.reportSuccess(m.idx); late {
			g.met.catchup.Inc()
		}
	}
}

// Instrument resolves the group's counters and stage timers from the
// registry: replication.acks / quorum_acks / catchup_batches / catchup_full
// and the replication.quorum_ack / full_ack latency histograms. A nil
// registry leaves the group uninstrumented.
func (g *Group) Instrument(reg *telemetry.Registry) {
	g.met = groupMetrics{
		acks:       reg.Counter("replication.acks"),
		quorumAcks: reg.Counter("replication.quorum_acks"),
		catchup:    reg.Counter("replication.catchup_batches"),
		queueFull:  reg.Counter("replication.catchup_full"),
		quorumT:    reg.Timer("replication.quorum_ack"),
		fullT:      reg.Timer("replication.full_ack"),
	}
}

// ApplyBatch submits the batch to every member's catch-up queue and returns
// once quorum members — always including the primary — have durably applied
// it; stragglers finish in the background. The batch fails if the primary
// fails or quorum becomes unreachable (lowest-indexed member error wins);
// members that already applied keep the writes, the same partial state a
// crashed fan-out leaves; a batch that already stopped members make fail is
// refused before any member applies it. The group retains the batch until
// the slowest member applied it, so callers must not add to it.
//
// When parent is live the pipeline appears as a "replication.fanout" span
// with a "replication.quorum_wait" child covering the blocking portion and
// one "replicate.N" child per member — a straggler's span completes after
// the fan-out span, which is exactly the point. The zero TSpan is inert.
func (g *Group) ApplyBatch(parent telemetry.TSpan, b *lsm.Batch) error {
	if b.Len() == 0 {
		return nil
	}
	fanSp := parent.Child("replication.fanout")
	defer fanSp.End()

	st := &ackState{
		members:  len(g.members),
		quorum:   g.quorum,
		reported: make([]bool, len(g.members)),
		done:     make(chan struct{}),
	}
	pb := &pendingBatch{batch: b, parent: fanSp, st: st}

	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return ErrClosed
	}
	// Admission, before a sequence is assigned: stopped members that leave
	// no quorum (or include the primary) refuse the batch with the
	// lowest-indexed one's error; a full catch-up queue on a running member
	// refuses it as overload. A stopped member's queue does not count, or
	// it would refuse every write while a quorum still holds.
	stopped, firstStopped, full := 0, -1, -1
	var stopErr error
	for _, m := range g.members {
		m.mu.Lock()
		if m.err != nil {
			if stopped++; firstStopped < 0 {
				firstStopped, stopErr = m.idx, m.err
			}
		} else if full < 0 && len(m.queue) >= g.maxQueue {
			full = m.idx
		}
		m.mu.Unlock()
	}
	switch {
	case firstStopped == 0 || stopped > len(g.members)-g.quorum:
		g.mu.Unlock()
		return fmt.Errorf("replication: member %d stopped: %w", firstStopped, stopErr)
	case full >= 0:
		g.mu.Unlock()
		g.met.queueFull.Inc()
		return fmt.Errorf("replication: member %d: %w", full, ErrCatchUpFull)
	}
	g.nextSeq++
	pb.seq = g.nextSeq
	st.quorumSpan = g.met.quorumT.Start()
	st.fullSpan = g.met.fullT.Start()
	// Enqueue to every member inside the same critical section that
	// assigned the sequence, so every member's queue holds the same batches
	// in the same (WAL) order. A stopped member fails the batch at once and
	// retains it for a restart's replay while its queue has room.
	for _, m := range g.members {
		m.mu.Lock()
		standing := m.err
		switch {
		case standing == nil:
			m.queue = append(m.queue, pb)
			m.cond.Signal()
		case !m.rebuild && len(m.queue) < g.maxQueue:
			m.queue = append(m.queue, pb)
		default:
			m.rebuild, m.queue = true, nil
		}
		m.mu.Unlock()
		if standing != nil {
			st.reportFailure(m.idx, standing)
		}
	}
	g.mu.Unlock()

	waitSp := fanSp.Child("replication.quorum_wait")
	<-st.done
	waitSp.End()

	st.mu.Lock()
	failed, err, errIdx := st.failed, st.err, st.errIdx
	st.mu.Unlock()
	if failed {
		return fmt.Errorf("replication: member %d: %w", errIdx, err)
	}
	g.met.quorumAcks.Inc()
	// Advance the commit watermark (monotonic max: concurrent batches may
	// resolve out of submit order).
	for {
		c := g.commit.Load()
		if pb.seq <= c || g.commit.CompareAndSwap(c, pb.seq) {
			break
		}
	}
	return nil
}

// Quiesce blocks until every member drained its catch-up queue (all
// stragglers converged), returning the first stopped member's error if one
// died on the way.
func (g *Group) Quiesce() error {
	var firstErr error
	for _, m := range g.members {
		for {
			m.mu.Lock()
			if m.err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("replication: member %d: %w", m.idx, m.err)
				}
				m.mu.Unlock()
				break
			}
			if len(m.queue) == 0 {
				m.mu.Unlock()
				break
			}
			ch := m.advance
			m.mu.Unlock()
			<-ch
		}
	}
	return firstErr
}

// RestartMember re-attaches a member whose worker stopped on an apply
// error: app (nil keeps the current applier) replaces the member's applier
// — typically a store reopened after a crash — and a new worker resumes
// draining the retained queue from the watermark, in the original WAL
// order. Batches the recovered store had already applied before the crash
// are re-applied idempotently (last-writer-wins on identical writes). A
// member marked as needing a rebuild is refused with ErrNeedsRebuild.
func (g *Group) RestartMember(i int, app Applier) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return ErrClosed
	}
	m := g.members[i]
	m.mu.Lock()
	if m.running || m.rebuild {
		err := ErrMemberRunning
		if m.rebuild {
			err = ErrNeedsRebuild
		}
		m.mu.Unlock()
		return fmt.Errorf("replication: member %d: %w", i, err)
	}
	if app != nil {
		m.app = app
	}
	m.err = nil
	m.running = true
	m.mu.Unlock()
	g.wg.Add(1)
	go g.runMember(m)
	return nil
}

// Close stops the pipeline: new writes are refused, every live worker
// drains its remaining queue (stragglers converge), and the call returns
// the first stopped member's error, if any. Idempotent.
func (g *Group) Close() error {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return nil
	}
	g.closed = true
	g.mu.Unlock()
	for _, m := range g.members {
		m.mu.Lock()
		m.closing = true
		m.cond.Broadcast()
		m.mu.Unlock()
	}
	g.wg.Wait()
	var firstErr error
	for _, m := range g.members {
		m.mu.Lock()
		if m.err != nil && firstErr == nil {
			firstErr = fmt.Errorf("replication: member %d: %w", m.idx, m.err)
		}
		m.mu.Unlock()
	}
	return firstErr
}

// GroupStats is a point-in-time snapshot of the pipeline's watermarks and
// queues, for the cluster's /storage and /healthz documents.
type GroupStats struct {
	Quorum   int      `json:"quorum"`
	Assigned uint64   `json:"assigned"` // last assigned sequence
	Commit   uint64   `json:"commit"`   // quorum watermark
	Applied  []uint64 `json:"applied"`  // per-member applied watermark
	Queue    []int    `json:"queue"`    // per-member catch-up depth
	Stopped  []bool   `json:"stopped"`  // per-member worker-dead flag
	Rebuild  []bool   `json:"rebuild"`  // per-member needs-rebuild flag
}

// MaxLag returns the snapshot's worst member lag behind the commit
// watermark.
func (s GroupStats) MaxLag() uint64 {
	var lag uint64
	for _, a := range s.Applied {
		if a < s.Commit && s.Commit-a > lag {
			lag = s.Commit - a
		}
	}
	return lag
}

// MaxQueue returns the snapshot's deepest member catch-up queue, in
// batches: the group's straggler depth.
func (s GroupStats) MaxQueue() int {
	max := 0
	for _, q := range s.Queue {
		if q > max {
			max = q
		}
	}
	return max
}

// Stats snapshots the group.
func (g *Group) Stats() GroupStats {
	g.mu.Lock()
	assigned := g.nextSeq
	g.mu.Unlock()
	st := GroupStats{
		Quorum:   g.quorum,
		Assigned: assigned,
		Commit:   g.commit.Load(),
	}
	for _, m := range g.members {
		m.mu.Lock()
		st.Applied = append(st.Applied, m.applied.Load())
		st.Queue = append(st.Queue, len(m.queue))
		st.Stopped = append(st.Stopped, m.err != nil)
		st.Rebuild = append(st.Rebuild, m.rebuild)
		m.mu.Unlock()
	}
	return st
}

// Placement computes replica placement for region r of table with n nodes:
// the primary on node r mod n, replicas on the following nodes, wrapping —
// the chain placement HDFS-style pipelines use. It returns factor node
// indices, all distinct when n >= factor, or ErrShortPipeline otherwise.
func Placement(regionOrdinal, nodes, factor int) ([]int, error) {
	if nodes < factor {
		return nil, fmt.Errorf("%w: %d nodes for factor %d", ErrShortPipeline, nodes, factor)
	}
	out := make([]int, factor)
	for i := range out {
		out[i] = (regionOrdinal + i) % nodes
	}
	return out, nil
}
