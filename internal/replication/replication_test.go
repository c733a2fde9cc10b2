package replication

import (
	"errors"
	"fmt"
	"testing"

	"tpcxiot/internal/lsm"
	"tpcxiot/internal/telemetry"
)

// mapApplier is an in-memory Applier for tests; batchCalls counts the
// rounds batches arrived in.
type mapApplier struct {
	data       map[string]string
	fail       error
	batchCalls int
}

func newMapApplier() *mapApplier { return &mapApplier{data: map[string]string{}} }

func (m *mapApplier) ApplyBatch(_ telemetry.TSpan, writes []lsm.Write) error {
	if m.fail != nil {
		return m.fail
	}
	m.batchCalls++
	for i := range writes {
		m.data[string(writes[i].Key)] = string(writes[i].Value)
	}
	return nil
}

// put replicates one write through g as a batch of one.
func put(g *Group, key, value string) error {
	return g.ApplyBatch(telemetry.TSpan{}, []lsm.Write{{Key: []byte(key), Value: []byte(value)}})
}

func TestPutReachesAllMembers(t *testing.T) {
	p, r1, r2 := newMapApplier(), newMapApplier(), newMapApplier()
	g := NewGroup(p, r1, r2)
	defer g.Close()
	if g.Factor() != 3 {
		t.Fatalf("Factor = %d, want 3", g.Factor())
	}
	if g.Quorum() != 2 {
		t.Fatalf("Quorum = %d, want 2", g.Quorum())
	}
	if err := put(g, "k", "v"); err != nil {
		t.Fatal(err)
	}
	// The ack fires at quorum; quiesce so the catch-up queues drain before
	// asserting all-member convergence.
	g.Quiesce()
	for i, m := range []*mapApplier{p, r1, r2} {
		if m.data["k"] != "v" {
			t.Fatalf("member %d missing write", i)
		}
	}
}

func TestOverwriteReachesAllMembers(t *testing.T) {
	p, r1, r2 := newMapApplier(), newMapApplier(), newMapApplier()
	g := NewGroup(p, r1, r2)
	defer g.Close()
	put(g, "k", "v")
	if err := put(g, "k", "v2"); err != nil {
		t.Fatal(err)
	}
	g.Quiesce()
	for i, m := range []*mapApplier{p, r1, r2} {
		if m.data["k"] != "v2" {
			t.Fatalf("member %d holds %q, want the overwrite", i, m.data["k"])
		}
	}
}

func TestMemberFailurePropagates(t *testing.T) {
	p, r1 := newMapApplier(), newMapApplier()
	sentinel := errors.New("disk gone")
	r1.fail = sentinel
	g := NewGroup(p, r1)
	if err := put(g, "k", "v"); !errors.Is(err, sentinel) {
		t.Fatalf("replica failure not surfaced: %v", err)
	}
	if err := put(g, "k", "v2"); !errors.Is(err, sentinel) {
		t.Fatalf("replica failure not surfaced on the next write: %v", err)
	}
}

func TestCheckFactor(t *testing.T) {
	g := NewGroup(newMapApplier(), newMapApplier(), newMapApplier())
	if err := g.CheckFactor(DefaultFactor); err != nil {
		t.Fatalf("3-way group failed the factor check: %v", err)
	}
	small := NewGroup(newMapApplier())
	if err := small.CheckFactor(DefaultFactor); !errors.Is(err, ErrFactorTooLow) {
		t.Fatalf("1-way group passed the factor check: %v", err)
	}
}

func TestPrimaryAndReplicas(t *testing.T) {
	p, r1, r2 := newMapApplier(), newMapApplier(), newMapApplier()
	g := NewGroup(p, r1, r2)
	if g.Primary() != Applier(p) {
		t.Fatal("Primary is not the first member")
	}
	if len(g.Replicas()) != 2 {
		t.Fatalf("Replicas = %d members", len(g.Replicas()))
	}
}

func TestPlacementDistinctNodes(t *testing.T) {
	for nodes := 3; nodes <= 8; nodes++ {
		for ordinal := 0; ordinal < 20; ordinal++ {
			placement, err := Placement(ordinal, nodes, DefaultFactor)
			if err != nil {
				t.Fatal(err)
			}
			if len(placement) != DefaultFactor {
				t.Fatalf("placement length %d", len(placement))
			}
			seen := map[int]bool{}
			for _, n := range placement {
				if n < 0 || n >= nodes {
					t.Fatalf("node %d out of range for %d nodes", n, nodes)
				}
				if seen[n] {
					t.Fatalf("duplicate node in placement %v", placement)
				}
				seen[n] = true
			}
			if placement[0] != ordinal%nodes {
				t.Fatalf("primary not on expected node: %v", placement)
			}
		}
	}
}

func TestPlacementBalancesPrimaries(t *testing.T) {
	const nodes = 4
	counts := make([]int, nodes)
	for ordinal := 0; ordinal < 400; ordinal++ {
		p, err := Placement(ordinal, nodes, DefaultFactor)
		if err != nil {
			t.Fatal(err)
		}
		counts[p[0]]++
	}
	for n, c := range counts {
		if c != 100 {
			t.Fatalf("node %d hosts %d primaries, want 100: %v", n, c, counts)
		}
	}
}

func TestPlacementTooFewNodes(t *testing.T) {
	if _, err := Placement(0, 2, DefaultFactor); !errors.Is(err, ErrShortPipeline) {
		t.Fatalf("2 nodes for factor 3: %v", err)
	}
}

func TestPipelineOrdering(t *testing.T) {
	// The fan-out is parallel, so replicas may apply a write the primary
	// rejected — but the batch must FAIL, the primary's standing error must
	// be visible, and the commit watermark must not advance past it.
	p, r1 := newMapApplier(), newMapApplier()
	sentinel := errors.New("primary down")
	p.fail = sentinel
	g := NewGroup(p, r1)
	defer g.Close()
	if err := put(g, "k", "v"); !errors.Is(err, sentinel) {
		t.Fatal("primary failure not surfaced")
	}
	g.Quiesce()
	if err := g.MemberErr(0); !errors.Is(err, sentinel) {
		t.Fatalf("primary standing error = %v, want %v", err, sentinel)
	}
	if got := g.CommitSeq(); got != 0 {
		t.Fatalf("commit watermark advanced to %d past a failed primary", got)
	}
}

func TestGroupWithManyMembers(t *testing.T) {
	members := make([]*mapApplier, 5)
	appliers := make([]Applier, 4)
	members[0] = newMapApplier()
	for i := 1; i < 5; i++ {
		members[i] = newMapApplier()
		appliers[i-1] = members[i]
	}
	g := NewGroup(members[0], appliers...)
	defer g.Close()
	if g.Factor() != 5 {
		t.Fatalf("Factor = %d", g.Factor())
	}
	if g.Quorum() != 3 {
		t.Fatalf("Quorum = %d, want 3", g.Quorum())
	}
	for i := 0; i < 100; i++ {
		if err := put(g, fmt.Sprintf("k%d", i), "v"); err != nil {
			t.Fatal(err)
		}
	}
	g.Quiesce()
	if lag := g.QuorumLag(); lag != 0 {
		t.Fatalf("quorum lag %d after quiesce", lag)
	}
	for i, m := range members {
		if len(m.data) != 100 {
			t.Fatalf("member %d has %d keys, want 100", i, len(m.data))
		}
	}
}

func testBatch(n int) []lsm.Write {
	out := make([]lsm.Write, n)
	for i := range out {
		out[i] = lsm.Write{Key: []byte(fmt.Sprintf("k%03d", i)), Value: []byte("v")}
	}
	return out
}

func TestApplyBatchReachesAllMembersInOneRound(t *testing.T) {
	members := []*mapApplier{newMapApplier(), newMapApplier(), newMapApplier()}
	g := NewGroup(members[0], members[1], members[2])
	defer g.Close()
	if err := g.ApplyBatch(telemetry.TSpan{}, testBatch(50)); err != nil {
		t.Fatal(err)
	}
	g.Quiesce()
	for i, m := range members {
		if len(m.data) != 50 {
			t.Fatalf("member %d holds %d keys, want 50", i, len(m.data))
		}
		if m.batchCalls != 1 {
			t.Fatalf("member %d applied in %d rounds, want 1", i, m.batchCalls)
		}
	}
}

func TestApplyBatchEmptyIsNoOp(t *testing.T) {
	g := NewGroup(newMapApplier(), newMapApplier())
	if err := g.ApplyBatch(telemetry.TSpan{}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestApplyBatchMemberFailureWins(t *testing.T) {
	// At full quorum (quorum == factor) a single replica failure makes the
	// quorum unreachable, so the batch fails and the member's error wins.
	p, r1, r2 := newMapApplier(), newMapApplier(), newMapApplier()
	sentinel := errors.New("replica disk gone")
	r1.fail = sentinel
	g := NewGroupOptions(Options{Quorum: 3}, p, r1, r2)
	defer g.Close()
	if err := g.ApplyBatch(telemetry.TSpan{}, testBatch(5)); !errors.Is(err, sentinel) {
		t.Fatalf("member failure not surfaced: %v", err)
	}
	g.Quiesce()
	// The parallel fan-out still applied the batch on healthy members.
	if len(p.data) != 5 || len(r2.data) != 5 {
		t.Fatalf("healthy members hold %d/%d keys, want 5/5", len(p.data), len(r2.data))
	}
}

func TestApplyBatchQuorumToleratesReplicaFailure(t *testing.T) {
	// At majority quorum the same replica failure is absorbed: the batch
	// acks on primary+r2 and the failed member carries a standing error.
	p, r1, r2 := newMapApplier(), newMapApplier(), newMapApplier()
	sentinel := errors.New("replica disk gone")
	r1.fail = sentinel
	g := NewGroup(p, r1, r2)
	defer g.Close()
	if err := g.ApplyBatch(telemetry.TSpan{}, testBatch(5)); err != nil {
		t.Fatalf("quorum write failed despite a healthy majority: %v", err)
	}
	g.Quiesce()
	if len(p.data) != 5 || len(r2.data) != 5 {
		t.Fatalf("healthy members hold %d/%d keys, want 5/5", len(p.data), len(r2.data))
	}
	if err := g.MemberErr(1); !errors.Is(err, sentinel) {
		t.Fatalf("failed member's standing error = %v, want %v", err, sentinel)
	}
	if g.CommitSeq() != 1 {
		t.Fatalf("commit = %d, want 1", g.CommitSeq())
	}
}

func TestApplyBatchSingleMember(t *testing.T) {
	p := newMapApplier()
	g := NewGroup(p)
	if err := g.ApplyBatch(telemetry.TSpan{}, testBatch(7)); err != nil {
		t.Fatal(err)
	}
	if len(p.data) != 7 {
		t.Fatalf("single member holds %d keys, want 7", len(p.data))
	}
}
