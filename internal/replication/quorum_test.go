package replication

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"tpcxiot/internal/lsm"
	"tpcxiot/internal/telemetry"
)

// gatedApplier blocks every batch apply until released, modelling a slow or
// stalled member. Safe for concurrent use with its controls.
type gatedApplier struct {
	inner   *mapApplier
	mu      sync.Mutex
	blocked bool
	release chan struct{}
	applies int
	order   []string // first key of each applied batch, in apply order
}

func newGatedApplier() *gatedApplier {
	return &gatedApplier{inner: newMapApplier(), release: make(chan struct{})}
}

// Block makes subsequent applies wait until Unblock.
func (g *gatedApplier) Block() {
	g.mu.Lock()
	g.blocked = true
	g.release = make(chan struct{})
	g.mu.Unlock()
}

// Unblock releases every waiting and future apply.
func (g *gatedApplier) Unblock() {
	g.mu.Lock()
	g.blocked = false
	close(g.release)
	g.mu.Unlock()
}

func (g *gatedApplier) wait() {
	g.mu.Lock()
	blocked, ch := g.blocked, g.release
	g.mu.Unlock()
	if blocked {
		<-ch
	}
}

func (g *gatedApplier) ApplyBatch(_ telemetry.TSpan, b *lsm.Batch) error {
	g.wait()
	g.mu.Lock()
	defer g.mu.Unlock()
	g.applies++
	first := true
	b.Each(func(key, value []byte) {
		if first {
			g.order, first = append(g.order, string(key)), false
		}
		g.inner.data[string(key)] = string(value)
	})
	return nil
}

func (g *gatedApplier) snapshot() (applies int, order []string, data map[string]string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	data = make(map[string]string, len(g.inner.data))
	for k, v := range g.inner.data {
		data[k] = v
	}
	return g.applies, append([]string(nil), g.order...), data
}

// (a) A blocked member must not delay the quorum acknowledgement.
func TestQuorumAckDoesNotWaitForStraggler(t *testing.T) {
	p, r1 := newMapApplier(), newMapApplier()
	straggler := newGatedApplier()
	straggler.Block()
	g := NewGroup(Options{}, p, r1, straggler)
	defer g.Close()

	done := make(chan error, 1)
	go func() { done <- put(g, "k", "v") }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("quorum put failed: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("quorum ack blocked on the straggler")
	}

	// The ack happened while the straggler is still behind.
	st := g.Stats()
	if st.Commit != 1 {
		t.Fatalf("commit = %d, want 1", st.Commit)
	}
	if st.Applied[2] != 0 {
		t.Fatal("straggler advanced while blocked")
	}
	if st.MaxLag() == 0 {
		t.Fatal("quorum lag not visible while the straggler is behind")
	}
	if st.Queue[2] != 1 || st.MaxQueue() != 1 {
		t.Fatalf("straggler queue depth = %d (max %d), want 1", st.Queue[2], st.MaxQueue())
	}

	straggler.Unblock()
	if err := g.Quiesce(); err != nil {
		t.Fatal(err)
	}
	if _, _, data := straggler.snapshot(); data["k"] != "v" {
		t.Fatal("straggler never converged")
	}
	if lag := g.Stats().MaxLag(); lag != 0 {
		t.Fatalf("quorum lag %d after convergence", lag)
	}
}

// (b) The catch-up queue drains in WAL order: no lost, duplicated, or
// reordered batch, even with writers racing the straggler's recovery.
func TestCatchUpDrainsInWALOrder(t *testing.T) {
	const batches = 64
	p, r1 := newMapApplier(), newMapApplier()
	straggler := newGatedApplier()
	straggler.Block()
	g := NewGroup(Options{MaxQueue: batches + 1}, p, r1, straggler)
	defer g.Close()

	for i := 0; i < batches; i++ {
		batch := batchOf(
			lsm.Write{Key: []byte(fmt.Sprintf("k%03d", i)), Value: []byte("v")},
			lsm.Write{Key: []byte(fmt.Sprintf("x%03d", i)), Value: []byte("v")},
		)
		if err := g.ApplyBatch(telemetry.TSpan{}, batch); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	if d := g.Stats().Queue[2]; d != batches {
		t.Fatalf("straggler retained %d batches, want %d", d, batches)
	}

	straggler.Unblock()
	if err := g.Quiesce(); err != nil {
		t.Fatal(err)
	}

	applies, order, data := straggler.snapshot()
	if applies != batches {
		t.Fatalf("straggler applied %d batches, want %d (lost or duplicated)", applies, batches)
	}
	for i, k := range order {
		if want := fmt.Sprintf("k%03d", i); k != want {
			t.Fatalf("batch %d applied as %q, want %q (reordered)", i, k, want)
		}
	}
	if len(data) != 2*batches {
		t.Fatalf("straggler holds %d keys, want %d", len(data), 2*batches)
	}
	if got, want := g.Stats().Applied[2], uint64(batches); got != want {
		t.Fatalf("straggler watermark %d, want %d", got, want)
	}
}

// crashingStore wraps a real lsm.Store and fails every apply after the trip
// point, simulating a member crash mid-stream.
type crashingStore struct {
	mu      sync.Mutex
	store   *lsm.Store
	applies int
	tripAt  int // fail once this many batches applied; <0 disables
	err     error
}

func (c *crashingStore) ApplyBatch(parent telemetry.TSpan, b *lsm.Batch) error {
	c.mu.Lock()
	if c.tripAt >= 0 && c.applies >= c.tripAt {
		err := c.err
		c.mu.Unlock()
		return err
	}
	c.applies++
	st := c.store
	c.mu.Unlock()
	return st.Apply(parent, b)
}

// storeMember makes a bare lsm.Store a pipeline member.
type storeMember struct{ *lsm.Store }

func (s storeMember) ApplyBatch(parent telemetry.TSpan, b *lsm.Batch) error {
	return s.Apply(parent, b)
}

// (c) A straggler that crashes keeps its retained queue; after the store is
// reopened (WAL recovery) and the member restarted, the queue replays from
// the watermark and the member converges to the same contents as the
// primary. Runs against real lsm stores for crash-recovery parity.
func TestStragglerCrashRestartReplaysToWatermark(t *testing.T) {
	const total = 40
	const crashAfter = 10

	openStore := func(dir string) *lsm.Store {
		s, err := lsm.Open(lsm.Options{Dir: dir, DisableAutoFlush: true})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	pDir, rDir, sDir := t.TempDir(), t.TempDir(), t.TempDir()
	p, r1 := openStore(pDir), openStore(rDir)
	flaky := &crashingStore{
		store:  openStore(sDir),
		tripAt: crashAfter,
		err:    errors.New("injected crash"),
	}

	g := NewGroup(Options{}, storeMember{p}, storeMember{r1}, flaky)
	for i := 0; i < total; i++ {
		if err := put(g, fmt.Sprintf("k%03d", i), fmt.Sprintf("v%03d", i)); err != nil {
			t.Fatalf("put %d failed despite a healthy quorum: %v", i, err)
		}
	}

	// Let the straggler hit its crash point, then observe the stop.
	deadline := time.Now().Add(5 * time.Second)
	for !g.Stats().Stopped[2] {
		if time.Now().After(deadline) {
			t.Fatal("straggler never crashed")
		}
		time.Sleep(time.Millisecond)
	}
	st := g.Stats()
	if st.Applied[2] != crashAfter {
		t.Fatalf("crashed at watermark %d, want %d", st.Applied[2], crashAfter)
	}
	// The retained queue resumes exactly at the watermark: every batch the
	// member never durably applied is still queued.
	if d := st.Queue[2]; d != total-crashAfter {
		t.Fatalf("retained queue %d batches, want %d", d, total-crashAfter)
	}

	// "Reboot" the member: close the crashed store, reopen from disk (WAL
	// recovery), re-attach, and let the replay run.
	if err := flaky.store.Close(); err != nil {
		t.Fatal(err)
	}
	recovered := openStore(sDir)
	if err := g.RestartMember(2, storeMember{recovered}); err != nil {
		t.Fatal(err)
	}
	if err := g.Quiesce(); err != nil {
		t.Fatal(err)
	}
	if got, want := g.Stats().Applied[2], uint64(total); got != want {
		t.Fatalf("replayed to %d, want %d", got, want)
	}

	// Parity: the recovered member serves exactly what the primary serves.
	for i := 0; i < total; i++ {
		key := []byte(fmt.Sprintf("k%03d", i))
		want := fmt.Sprintf("v%03d", i)
		v, ok, err := recovered.Get(key)
		if err != nil || !ok || string(v) != want {
			t.Fatalf("recovered member k%03d = %q ok=%v err=%v, want %q", i, v, ok, err, want)
		}
		pv, pok, perr := p.Get(key)
		if perr != nil || !pok || string(pv) != want {
			t.Fatalf("primary k%03d = %q ok=%v err=%v, want %q", i, pv, pok, perr, want)
		}
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	for _, s := range []*lsm.Store{p, r1, recovered} {
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// A stalled straggler fills its bounded catch-up queue; the group then
// refuses new writes with ErrCatchUpFull instead of queueing unboundedly.
func TestFullCatchUpQueueRefusesWrites(t *testing.T) {
	const maxQueue = 4
	p, r1 := newMapApplier(), newMapApplier()
	straggler := newGatedApplier()
	straggler.Block()
	g := NewGroup(Options{MaxQueue: maxQueue}, p, r1, straggler)
	defer g.Close()

	// The straggler's worker may pull the head batch out of the queue and
	// block inside the apply, freeing one slot — so up to maxQueue+1 writes
	// can be admitted before the refusal. Everything admitted must ack.
	admitted := 0
	var refusal error
	for i := 0; i < maxQueue+2; i++ {
		err := put(g, fmt.Sprintf("k%d", i), "v")
		if err == nil {
			admitted++
			continue
		}
		refusal = err
		break
	}
	if refusal == nil {
		t.Fatal("stalled straggler never produced ErrCatchUpFull")
	}
	if !errors.Is(refusal, ErrCatchUpFull) {
		t.Fatalf("refusal = %v, want ErrCatchUpFull", refusal)
	}
	if admitted < maxQueue {
		t.Fatalf("only %d writes admitted before refusal, want >= %d", admitted, maxQueue)
	}

	// Backpressure is retryable: once the straggler drains, writes flow.
	straggler.Unblock()
	if err := g.Quiesce(); err != nil {
		t.Fatal(err)
	}
	if err := put(g, "after", "v"); err != nil {
		t.Fatalf("write refused after the queue drained: %v", err)
	}
}

// Replays after a restart must not double-count quorum acknowledgements:
// the batch's ack state accepts one report per member.
func TestRestartReplayDoesNotDoubleAck(t *testing.T) {
	p, r1 := newMapApplier(), newMapApplier()
	flaky := &crashingStore{}
	sDir := t.TempDir()
	s, err := lsm.Open(lsm.Options{Dir: sDir, DisableAutoFlush: true})
	if err != nil {
		t.Fatal(err)
	}
	flaky.store, flaky.tripAt, flaky.err = s, 0, errors.New("down from the start")

	g := NewGroup(Options{}, p, r1, flaky)
	for i := 0; i < 10; i++ {
		if err := put(g, fmt.Sprintf("k%d", i), "v"); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for !g.Stats().Stopped[2] {
		if time.Now().After(deadline) {
			t.Fatal("member never stopped")
		}
		time.Sleep(time.Millisecond)
	}

	flaky.mu.Lock()
	flaky.tripAt = -1 // recovered
	flaky.mu.Unlock()
	if err := g.RestartMember(2, nil); err != nil {
		t.Fatal(err)
	}
	if err := g.Quiesce(); err != nil {
		t.Fatal(err)
	}
	if st := g.Stats(); st.Applied[2] != 10 || st.Commit != 10 {
		t.Fatalf("replayed to %d, commit %d: want 10 and 10", st.Applied[2], st.Commit)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// A stopped member must not stop its region: with one member failing every
// apply, the 2-of-3 quorum keeps acknowledging past MaxQueue batches. The
// member fails each batch it misses, retains at most MaxQueue of them, is
// then marked as needing a rebuild, and a restart is refused.
func TestStoppedMemberDoesNotStopRegion(t *testing.T) {
	const maxQueue = 8
	p, r1, dead := newMapApplier(), newMapApplier(), newMapApplier()
	dead.fail = errors.New("disk gone")
	g := NewGroup(Options{MaxQueue: maxQueue}, p, r1, dead)
	defer g.Close()

	const writes = 3 * maxQueue
	for i := 0; i < writes; i++ {
		if err := put(g, fmt.Sprintf("k%03d", i), "v"); err != nil {
			st := g.Stats()
			t.Fatalf("write %d refused with one member stopped: %v (Applied %v Queue %v)", i+1, err, st.Applied, st.Queue)
		}
	}
	st := g.Stats()
	if st.Commit != writes || st.Applied[0] != writes || st.Applied[1] != writes {
		t.Fatalf("commit %d, applied %v: want %d on the two live members", st.Commit, st.Applied, writes)
	}
	if !st.Stopped[2] || st.Applied[2] != 0 {
		t.Fatalf("member 2 stopped %v at %d, want stopped at 0", st.Stopped[2], st.Applied[2])
	}
	if want := []bool{false, false, true}; fmt.Sprint(st.Rebuild) != fmt.Sprint(want) {
		t.Fatalf("rebuild = %v, want %v", st.Rebuild, want)
	}
	if st.Queue[2] != 0 {
		t.Fatalf("a member that needs a rebuild retains %d batches", st.Queue[2])
	}
	if len(p.data) != writes || len(r1.data) != writes {
		t.Fatalf("live members hold %d/%d keys, want %d", len(p.data), len(r1.data), writes)
	}
	if err := g.RestartMember(2, newMapApplier()); !errors.Is(err, ErrNeedsRebuild) {
		t.Fatalf("restart past the bound = %v, want ErrNeedsRebuild", err)
	}
}

// A stopped member retains up to MaxQueue batches and a restart within that
// bound replays them; the next batch past it marks the member for rebuild.
func TestStoppedMemberRetainsUpToMaxQueue(t *testing.T) {
	const maxQueue = 8
	p, r1 := newMapApplier(), newMapApplier()
	flaky := newGatedApplier()
	g := NewGroup(Options{MaxQueue: maxQueue}, p, r1, &failOnce{gatedApplier: flaky})
	defer g.Close()

	for i := 0; i < maxQueue; i++ {
		if err := put(g, fmt.Sprintf("k%03d", i), "v"); err != nil {
			t.Fatal(err)
		}
	}
	waitStopped(t, g, 2)
	if st := g.Stats(); st.Queue[2] != maxQueue || st.Rebuild[2] {
		t.Fatalf("stopped member queue %d, rebuild %v: want %d retained and no rebuild", st.Queue[2], st.Rebuild[2], maxQueue)
	}
	if err := g.RestartMember(2, flaky); err != nil {
		t.Fatal(err)
	}
	if err := g.Quiesce(); err != nil {
		t.Fatal(err)
	}
	if _, _, data := flaky.snapshot(); len(data) != maxQueue {
		t.Fatalf("restarted member holds %d keys, want %d", len(data), maxQueue)
	}
}

// failOnce fails its first apply and then delegates: a member that stops
// once and recovers.
type failOnce struct {
	*gatedApplier
	failed bool
}

func (f *failOnce) ApplyBatch(parent telemetry.TSpan, b *lsm.Batch) error {
	if !f.failed {
		f.failed = true
		return errors.New("transient fault")
	}
	return f.gatedApplier.ApplyBatch(parent, b)
}

func waitStopped(t *testing.T, g *Group, idx int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !g.Stats().Stopped[idx] {
		if time.Now().After(deadline) {
			t.Fatalf("member %d never stopped", idx)
		}
		time.Sleep(time.Millisecond)
	}
}

// With two of three members stopped a write fails, past MaxQueue as before
// it: with the stopped member's error, naming it, not with ErrCatchUpFull.
func TestTwoStoppedMembersFailWrites(t *testing.T) {
	const maxQueue = 8
	p, d1, d2 := newMapApplier(), newMapApplier(), newMapApplier()
	sentinel := errors.New("disk gone")
	d1.fail, d2.fail = sentinel, sentinel
	g := NewGroup(Options{MaxQueue: maxQueue}, p, d1, d2)
	defer g.Close()

	for i := 0; i < 3*maxQueue; i++ {
		err := put(g, fmt.Sprintf("k%03d", i), "v")
		if errors.Is(err, ErrCatchUpFull) || !errors.Is(err, sentinel) || !strings.Contains(err.Error(), "member 1") {
			t.Fatalf("write %d with two members stopped = %v, want member 1's %v", i+1, err, sentinel)
		}
	}
}
