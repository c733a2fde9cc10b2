package hbase

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"tpcxiot/internal/lsm"
	"tpcxiot/internal/replication"
	"tpcxiot/internal/telemetry"
	"tpcxiot/internal/wal"
)

// gatedMember wraps a replication member and blocks every apply until
// released, turning one replica into a controllable straggler.
type gatedMember struct {
	inner replication.Applier
	mu    sync.Mutex
	open  bool
	gate  chan struct{}
}

func newGatedMember(inner replication.Applier) *gatedMember {
	return &gatedMember{inner: inner, gate: make(chan struct{})}
}

func (g *gatedMember) Unblock() {
	g.mu.Lock()
	if !g.open {
		g.open = true
		close(g.gate)
	}
	g.mu.Unlock()
}

func (g *gatedMember) wait() {
	g.mu.Lock()
	open, ch := g.open, g.gate
	g.mu.Unlock()
	if !open {
		<-ch
	}
}

// ApplyBatch forwards the trace span with the batch: a wrapper that dropped
// it would erase every engine span under this member.
func (g *gatedMember) ApplyBatch(parent telemetry.TSpan, b *lsm.Batch) error {
	g.wait()
	return g.inner.ApplyBatch(parent, b)
}

// stragglerCluster builds a 3-node cluster whose member 2 (the second
// replica — never needed for a majority quorum) is gated behind the
// returned gatedMember, with a small catch-up queue so overload arrives
// quickly.
func stragglerCluster(t testing.TB, cfg Config) (*Cluster, *gatedMember) {
	t.Helper()
	var gated *gatedMember
	var gatedMu sync.Mutex
	cfg.Nodes = 3
	if cfg.DataDir == "" {
		cfg.DataDir = t.TempDir()
	}
	cfg.Store = lsm.Options{WALSync: wal.SyncNever}
	cfg.MemberWrapper = func(region string, idx int, app replication.Applier) replication.Applier {
		if idx != 2 {
			return app
		}
		gatedMu.Lock()
		defer gatedMu.Unlock()
		if gated == nil {
			gated = newGatedMember(app)
			return gated
		}
		// Single-region tests only: reuse would cross-wire gates.
		t.Fatalf("second gated member requested (region %s)", region)
		return app
	}
	cl, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		gatedMu.Lock()
		if gated != nil {
			gated.Unblock()
		}
		gatedMu.Unlock()
		cl.Close()
	})
	if _, err := cl.CreateTable("iot", nil); err != nil {
		t.Fatal(err)
	}
	gatedMu.Lock()
	defer gatedMu.Unlock()
	if gated == nil {
		t.Fatal("member wrapper never saw member 2")
	}
	return cl, gated
}

// fillToShed puts through c until the stalled straggler's catch-up queue
// fills and the server sheds, returning the shed error.
func fillToShed(t *testing.T, c *Client, limit int) error {
	t.Helper()
	for i := 0; i < limit; i++ {
		if err := c.Put([]byte(fmt.Sprintf("fill%04d", i)), []byte("v")); err != nil {
			return err
		}
	}
	t.Fatalf("no shed after %d puts against a stalled straggler", limit)
	return nil
}

// A stalled straggler fills its catch-up queue; the next mutate is refused
// with a typed retryable OverloadedError carrying a retry-after hint —
// while writes keep acking at quorum right up to the bound.
func TestServerShedsOnStalledStraggler(t *testing.T) {
	cl, gated := stragglerCluster(t, Config{CatchUpQueue: 4, RetryMax: -1})
	c, err := cl.NewClient("iot", 0)
	if err != nil {
		t.Fatal(err)
	}

	shedErr := fillToShed(t, c, 64)
	if !errors.Is(shedErr, ErrOverloaded) {
		t.Fatalf("shed error = %v, want ErrOverloaded", shedErr)
	}
	var over *OverloadedError
	if !errors.As(shedErr, &over) {
		t.Fatalf("shed error %v is not an *OverloadedError", shedErr)
	}
	if over.RetryAfter <= 0 {
		t.Fatalf("retry-after hint = %s, want > 0", over.RetryAfter)
	}

	// The shed is accounted on the server and in the health document.
	h := cl.Health()
	if h.Sheds == 0 {
		t.Fatal("health reports no sheds after a refused mutate")
	}
	if h.CatchUpDepth == 0 {
		t.Fatal("health reports no catch-up depth with a stalled straggler")
	}
	if h.QuorumLag == 0 {
		t.Fatal("health reports no quorum lag with a stalled straggler")
	}
	// One shed is a pressure valve, not an outage: still healthy.
	if h.Overloaded || !h.OK {
		t.Fatalf("single shed flipped health: overloaded=%v ok=%v", h.Overloaded, h.OK)
	}

	// Backpressure is retryable: drain the straggler and the same batch
	// (still buffered client-side) flushes through.
	gated.Unblock()
	if err := cl.Quiesce(); err != nil {
		t.Fatal(err)
	}
	if err := c.FlushCommits(); err != nil {
		t.Fatalf("flush after drain: %v", err)
	}
	if got, _ := c.RetryStats(); got != 0 {
		t.Fatalf("retries = %d with retries disabled", got)
	}
}

// Sustained overload — a run of sheds with no successful write in between —
// flips /healthz to 503; the storage report exposes the per-member queues.
func TestHealthSustainedOverload(t *testing.T) {
	cl, gated := stragglerCluster(t, Config{CatchUpQueue: 2, RetryMax: -1})
	c, err := cl.NewClient("iot", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(fillToShed(t, c, 64), ErrOverloaded) {
		t.Fatal("no shed")
	}
	// Keep hammering: every attempt sheds, so the streak grows.
	for i := 0; i < SustainedShedStreak+4; i++ {
		if err := c.FlushCommits(); err == nil {
			t.Fatal("flush succeeded against a full catch-up queue")
		}
	}
	h := cl.Health()
	if !h.Overloaded || h.OK {
		t.Fatalf("sustained sheds (streak %d) did not flip health: %+v", h.ShedStreak, h)
	}
	if h.ShedStreak < SustainedShedStreak {
		t.Fatalf("shed streak = %d, want >= %d", h.ShedStreak, SustainedShedStreak)
	}

	// The storage report names the lagging member and its queue.
	st := cl.Storage()
	if len(st.Replication) == 0 {
		t.Fatal("storage report has no replication section")
	}
	var sawQueue bool
	for _, rr := range st.Replication {
		if rr.MaxLag > 0 {
			sawQueue = true
		}
	}
	if !sawQueue {
		t.Fatal("storage report shows no member lag despite a stalled straggler")
	}

	// Recovery: drain, write once, health clears.
	gated.Unblock()
	if err := cl.Quiesce(); err != nil {
		t.Fatal(err)
	}
	if err := c.FlushCommits(); err != nil {
		t.Fatal(err)
	}
	h = cl.Health()
	if h.Overloaded || !h.OK {
		t.Fatalf("health still overloaded after recovery: %+v", h)
	}
}

// The overloaded status crosses the TCP wire as its own frame: remote
// clients reconstruct the same typed error, hint included, and the
// connection survives for the retry.
func TestOverloadedErrorOverTCP(t *testing.T) {
	cl, gated := stragglerCluster(t, Config{CatchUpQueue: 4, RetryMax: -1})
	if err := cl.ServeTCP(); err != nil {
		t.Fatal(err)
	}
	c, err := cl.NewTCPClient("iot", 0)
	if err != nil {
		t.Fatal(err)
	}

	shedErr := fillToShed(t, c, 64)
	var over *OverloadedError
	if !errors.As(shedErr, &over) {
		t.Fatalf("TCP shed error %v did not reconstruct *OverloadedError", shedErr)
	}
	if !errors.Is(shedErr, ErrOverloaded) {
		t.Fatalf("TCP shed error %v does not unwrap to ErrOverloaded", shedErr)
	}
	if over.RetryAfter <= 0 {
		t.Fatalf("retry-after hint lost on the wire: %s", over.RetryAfter)
	}

	// The connection stays usable: a read through a second client (whose
	// buffer is empty, so no flush precedes it) works mid-overload, and the
	// shed client's own connection carries the successful retry after the
	// straggler drains.
	reader, err := cl.NewTCPClient("iot", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := getKey(reader, []byte("fill0000")); err != nil {
		t.Fatalf("reads failing during write overload: %v", err)
	}
	if err := reader.Close(); err != nil {
		t.Fatal(err)
	}
	gated.Unblock()
	if err := cl.Quiesce(); err != nil {
		t.Fatal(err)
	}
	if err := c.FlushCommits(); err != nil {
		t.Fatalf("flush after drain over TCP: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

// The client's capped, jittered exponential backoff rides out a transient
// overload: a shed flush is retried and eventually succeeds, with the
// retries counted.
func TestClientBackoffRetriesThroughOverload(t *testing.T) {
	cl, gated := stragglerCluster(t, Config{
		CatchUpQueue:   2,
		RetryMax:       20,
		RetryBaseDelay: time.Millisecond,
		RetryMaxDelay:  10 * time.Millisecond,
	})
	c, err := cl.NewClient("iot", 0)
	if err != nil {
		t.Fatal(err)
	}

	// Release the straggler shortly after the first sheds hit, while the
	// client is inside its backoff loop.
	go func() {
		time.Sleep(20 * time.Millisecond)
		gated.Unblock()
	}()

	for i := 0; i < 64; i++ {
		if err := c.Put([]byte(fmt.Sprintf("rk%04d", i)), []byte("v")); err != nil {
			t.Fatalf("put %d failed despite retries: %v", i, err)
		}
	}
	if err := c.FlushCommits(); err != nil {
		t.Fatalf("flush failed despite retries: %v", err)
	}
	retries, exhausted := c.RetryStats()
	if retries == 0 {
		t.Fatal("no retries recorded: the straggler never caused a shed (timing too generous?)")
	}
	if exhausted != 0 {
		t.Fatalf("%d mutates exhausted retries; all should have recovered", exhausted)
	}
	if err := cl.Quiesce(); err != nil {
		t.Fatal(err)
	}
	// Every put landed exactly once on every member.
	tbl, _ := cl.Table("iot")
	for _, tr := range tbl.regions {
		for ri, rep := range copies(cl, tr) {
			for i := 0; i < 64; i++ {
				key := []byte(fmt.Sprintf("rk%04d", i))
				if _, ok, err := rep.Store().Get(key); err != nil || !ok {
					t.Fatalf("replica %d missing %q after retries: ok=%v err=%v", ri, key, ok, err)
				}
			}
		}
	}
}

// backoffDelay grows exponentially, respects the cap, jitters inside
// [d/2, d], and never undercuts the server's hint.
func TestBackoffDelayShape(t *testing.T) {
	cl, _ := newTestCluster(t, 3, nil)
	c, err := cl.NewClient("iot", 0)
	if err != nil {
		t.Fatal(err)
	}
	c.retryBase = time.Millisecond
	c.retryCap = 32 * time.Millisecond
	for attempt := 0; attempt < 12; attempt++ {
		want := c.retryBase << uint(attempt)
		if want > c.retryCap || want <= 0 {
			want = c.retryCap
		}
		for i := 0; i < 100; i++ {
			d := c.backoffDelay(attempt, 0)
			if d < want/2 || d > want {
				t.Fatalf("attempt %d: delay %s outside [%s, %s]", attempt, d, want/2, want)
			}
		}
	}
	// The server hint floors the delay.
	if d := c.backoffDelay(0, 500*time.Millisecond); d < 500*time.Millisecond {
		t.Fatalf("delay %s below the 500ms server hint", d)
	}
}

// failingMember fails every apply: a replica whose disk is gone.
type failingMember struct{ err error }

func (f failingMember) ApplyBatch(telemetry.TSpan, *lsm.Batch) error { return f.err }

// A replica that stopped does not stop its region: past CatchUpQueue
// batches, writes keep acking at quorum, and /healthz and /storage report
// the copy as stopped and needing a rebuild.
func TestStoppedMemberKeepsRegionWritable(t *testing.T) {
	cfg := testConfig(t, 3)
	cfg.CatchUpQueue = 4
	cfg.RetryMax = -1
	gone := errors.New("disk gone")
	cfg.MemberWrapper = func(_ string, idx int, app replication.Applier) replication.Applier {
		if idx == 2 {
			return failingMember{gone}
		}
		return app
	}
	cl, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	if _, err := cl.CreateTable("iot", nil); err != nil {
		t.Fatal(err)
	}
	c, err := cl.NewClient("iot", 0)
	if err != nil {
		t.Fatal(err)
	}
	// Let the replica stop on the first write: until its worker has failed
	// that batch it is a running member, and its undrained queue may
	// rightly shed the writes behind it.
	if err := c.Put([]byte("k0000"), []byte("v")); err != nil {
		t.Fatalf("first put: %v", err)
	}
	if err := c.FlushCommits(); err != nil {
		t.Fatalf("first flush: %v", err)
	}
	if err := cl.Quiesce(); !errors.Is(err, gone) {
		t.Fatalf("quiesce after the first write = %v, want the stopped replica's error", err)
	}
	for i := 1; i < 4*cfg.CatchUpQueue; i++ {
		if err := c.Put([]byte(fmt.Sprintf("k%04d", i)), []byte("v")); err != nil {
			t.Fatalf("put %d with one replica stopped: %v", i, err)
		}
	}
	if err := c.FlushCommits(); err != nil {
		t.Fatalf("flush with one replica stopped: %v", err)
	}
	if h := cl.Health(); h.OK || h.StoppedCopies != 1 || h.RebuildCopies != 1 || h.Sheds != 0 {
		t.Fatalf("health ok=%v stopped=%d rebuild=%d sheds=%d, want false, 1, 1, 0", h.OK, h.StoppedCopies, h.RebuildCopies, h.Sheds)
	}
	if g := cl.Storage().Replication[0].Group; !g.Rebuild[2] || g.Commit != uint64(4*cfg.CatchUpQueue) {
		t.Fatalf("replication %+v: want member 2 marked for rebuild and every write committed", g)
	}
}
