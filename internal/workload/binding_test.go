package workload

import (
	"testing"
	"time"

	"tpcxiot/internal/hbase"
	"tpcxiot/internal/lsm"
	"tpcxiot/internal/wal"
	"tpcxiot/internal/ycsb"
)

// newCluster starts a three-node cluster serving TCP, holding the table
// "iot" in one region, its stores opened with opts and WAL syncs off.
func newCluster(t *testing.T, opts lsm.Options) *hbase.Cluster {
	t.Helper()
	opts.WALSync = wal.SyncNever
	cl, err := hbase.NewCluster(hbase.Config{Nodes: 3, DataDir: t.TempDir(), Store: opts})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	if _, err := cl.CreateTable("iot", nil); err != nil {
		t.Fatal(err)
	}
	if err := cl.ServeTCP(); err != nil {
		t.Fatal(err)
	}
	return cl
}

func TestClusterBindingEndToEnd(t *testing.T) {
	cl := newCluster(t, lsm.Options{})
	clock := newVirtualClock(time.UnixMilli(1_700_000_000_000), time.Millisecond)
	inst, err := NewInstance(InstanceConfig{
		Substation: "substation-00000",
		Readings:   4_000,
		Seed:       9,
		Now:        clock.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ycsb.Run(ycsb.RunConfig{Threads: 2}, ClusterBinding(cl, "iot", 64<<10), inst)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ops[ycsb.OpInsert] != 4_000 {
		t.Fatalf("inserted %d", rep.Ops[ycsb.OpInsert])
	}
	if inst.Stats().Queries == 0 {
		t.Fatal("no queries ran against the cluster")
	}
	// Everything readable through a fresh client.
	db, err := ClusterBinding(cl, "iot", 0)(0)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if n := len(scanRows(t, db, nil, nil, 0)); n != 4_000 {
		t.Fatalf("cluster holds %d rows", n)
	}
}

func TestClusterBindingScanLimit(t *testing.T) {
	db, err := ClusterBinding(newCluster(t, lsm.Options{}), "iot", 0)(0)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 50; i++ {
		if err := db.Insert([]byte{byte(i)}, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(scanRows(t, db, nil, nil, 10)); n != 10 {
		t.Fatalf("limited scan: %d rows", n)
	}
	if n := len(scanRows(t, db, []byte{5}, []byte{15}, 0)); n != 10 {
		t.Fatalf("bounded scan: %d rows", n)
	}
}
