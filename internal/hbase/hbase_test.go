package hbase

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"tpcxiot/internal/lsm"
	"tpcxiot/internal/wal"
)

func testConfig(t testing.TB, nodes int) Config {
	t.Helper()
	return Config{
		Nodes:   nodes,
		DataDir: t.TempDir(),
		Store:   lsm.Options{WALSync: wal.SyncNever},
	}
}

func newTestCluster(t testing.TB, nodes int, splits [][]byte) (*Cluster, *Client) {
	t.Helper()
	cl, err := NewCluster(testConfig(t, nodes))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	if _, err := cl.CreateTable("iot", splits); err != nil {
		t.Fatal(err)
	}
	c, err := cl.NewClient("iot", 0) // autoflush for most tests
	if err != nil {
		t.Fatal(err)
	}
	return cl, c
}

// copies returns tr's hosted copies in placement order, primary first.
func copies(cl *Cluster, tr *tableRegion) []*Region {
	var out []*Region
	n := len(cl.servers)
	for i := 0; i < n; i++ {
		if r, err := cl.servers[(tr.primary.id+i)%n].hosted(tr.name); err == nil {
			out = append(out, r)
		}
	}
	return out
}

// scanAll reads the rows of [lo, hi) through a Scanner, at most limit of
// them (<= 0 is unlimited).
func scanAll(c *Client, lo, hi []byte, limit int) ([]Row, error) {
	sc, err := c.NewScanner(lo, hi, limit)
	if err != nil {
		return nil, err
	}
	defer sc.Close()
	var rows []Row
	for {
		row, ok, err := sc.Next()
		if err != nil || !ok {
			return rows, err
		}
		rows = append(rows, row)
	}
}

// getKey reads one key through a Scanner over [key, key+"\x00"), the
// range that holds that key alone.
func getKey(c *Client, key []byte) ([]byte, bool, error) {
	rows, err := scanAll(c, key, append(key[:len(key):len(key)], 0), 1)
	if err != nil || len(rows) == 0 {
		return nil, false, err
	}
	return rows[0].Value, true, nil
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewCluster(Config{}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("missing DataDir: %v", err)
	}
	if _, err := NewCluster(Config{DataDir: t.TempDir(), Nodes: 2}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("2 nodes with factor 3: %v", err)
	}
	cl, err := NewCluster(Config{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if cl.NodeCount() != 3 || cl.ReplicationFactor() != 3 {
		t.Fatalf("defaults: nodes=%d factor=%d", cl.NodeCount(), cl.ReplicationFactor())
	}
}

func TestPutGetSingleRegion(t *testing.T) {
	_, c := newTestCluster(t, 3, nil)
	if err := c.Put([]byte("k1"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := getKey(c, []byte("k1"))
	if err != nil || !ok || string(v) != "v1" {
		t.Fatalf("read = %q,%v,%v", v, ok, err)
	}
	if _, ok, _ := getKey(c, []byte("absent")); ok {
		t.Fatal("absent key reported present")
	}
}

func TestRoutingAcrossRegions(t *testing.T) {
	splits := [][]byte{[]byte("g"), []byte("p")}
	cl, c := newTestCluster(t, 4, splits)
	tbl, _ := cl.Table("iot")
	if len(tbl.regions) != 3 {
		t.Fatalf("regions = %d, want 3", len(tbl.regions))
	}
	// Keys in each range route to distinct regions.
	names := map[string]bool{}
	for _, k := range []string{"apple", "grape", "zebra"} {
		names[tbl.locate([]byte(k)).name] = true
	}
	if len(names) != 3 {
		t.Fatalf("3 keys in 3 ranges hit %d regions", len(names))
	}
	// Boundary key belongs to the upper region (start inclusive).
	if tbl.locate([]byte("g")).name != tbl.locate([]byte("h")).name {
		t.Fatal("split key must route to the region it starts")
	}
	for _, k := range []string{"apple", "grape", "zebra", "g", "p"} {
		if err := c.Put([]byte(k), []byte("v-"+k)); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range []string{"apple", "grape", "zebra", "g", "p"} {
		v, ok, err := getKey(c, []byte(k))
		if err != nil || !ok || string(v) != "v-"+k {
			t.Fatalf("read %q = %q,%v,%v", k, v, ok, err)
		}
	}
}

func TestWriteBufferBatching(t *testing.T) {
	cl, _ := newTestCluster(t, 3, nil)
	c, err := cl.NewClient("iot", 10*1024)
	if err != nil {
		t.Fatal(err)
	}
	val := bytes.Repeat([]byte{'v'}, 1000)
	// Below threshold: nothing flushed yet, reads of other keys see nothing.
	for i := 0; i < 5; i++ {
		if err := c.Put([]byte(fmt.Sprintf("k%d", i)), val); err != nil {
			t.Fatal(err)
		}
	}
	if c.buffered == 0 {
		t.Fatal("writes were not buffered")
	}
	// Crossing the threshold must autoflush.
	for i := 5; i < 15; i++ {
		c.Put([]byte(fmt.Sprintf("k%d", i)), val)
	}
	if c.buffered >= 10*1024 {
		t.Fatalf("buffer never autoflushed: %d bytes", c.buffered)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	// All rows visible through a fresh client.
	c2, _ := cl.NewClient("iot", 0)
	for i := 0; i < 15; i++ {
		if _, ok, _ := getKey(c2, []byte(fmt.Sprintf("k%d", i))); !ok {
			t.Fatalf("k%d lost", i)
		}
	}
}

func TestReadYourOwnBufferedWrites(t *testing.T) {
	cl, _ := newTestCluster(t, 3, nil)
	c, err := cl.NewClient("iot", 1<<30) // effectively never autoflush
	if err != nil {
		t.Fatal(err)
	}
	c.Put([]byte("mine"), []byte("v"))
	v, ok, err := getKey(c, []byte("mine"))
	if err != nil || !ok || string(v) != "v" {
		t.Fatalf("client cannot read its own buffered write: %q,%v,%v", v, ok, err)
	}
	rows, err := scanAll(c, nil, nil, 0)
	if err != nil || len(rows) != 1 {
		t.Fatalf("scan after buffered write: %d rows, %v", len(rows), err)
	}
}

func TestScanSpansRegions(t *testing.T) {
	splits := [][]byte{[]byte("k050"), []byte("k100"), []byte("k150")}
	_, c := newTestCluster(t, 4, splits)
	for i := 0; i < 200; i++ {
		if err := c.Put([]byte(fmt.Sprintf("k%03d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	rows, err := scanAll(c, []byte("k025"), []byte("k175"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 150 {
		t.Fatalf("cross-region scan returned %d rows, want 150", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if bytes.Compare(rows[i-1].Key, rows[i].Key) >= 0 {
			t.Fatal("cross-region scan out of order")
		}
	}
}

func TestScanLimit(t *testing.T) {
	_, c := newTestCluster(t, 3, [][]byte{[]byte("k050")})
	for i := 0; i < 100; i++ {
		c.Put([]byte(fmt.Sprintf("k%03d", i)), []byte("v"))
	}
	rows, err := scanAll(c, nil, nil, 30)
	if err != nil || len(rows) != 30 {
		t.Fatalf("limited scan: %d rows, %v", len(rows), err)
	}
	// Limit spanning a region boundary.
	rows, err = scanAll(c, []byte("k045"), nil, 10)
	if err != nil || len(rows) != 10 {
		t.Fatalf("boundary-limited scan: %d rows, %v", len(rows), err)
	}
	if string(rows[0].Key) != "k045" || string(rows[9].Key) != "k054" {
		t.Fatalf("boundary scan rows %q..%q", rows[0].Key, rows[9].Key)
	}
}

func TestReplicationFactorOnAllReplicas(t *testing.T) {
	cl, c := newTestCluster(t, 5, [][]byte{[]byte("m")})
	c.Put([]byte("alpha"), []byte("1"))
	c.Put([]byte("zulu"), []byte("2"))
	// Writes ack at quorum once flushed; drain the catch-up queues before
	// asserting all-replica convergence.
	if err := c.FlushCommits(); err != nil {
		t.Fatal(err)
	}
	if err := cl.Quiesce(); err != nil {
		t.Fatal(err)
	}

	tbl, _ := cl.Table("iot")
	for _, tr := range tbl.regions {
		if got := len(tr.group.Stats().Applied); got != 3 {
			t.Fatalf("region %s factor = %d", tr.name, got)
		}
		if len(copies(cl, tr)) != 3 {
			t.Fatalf("region %s has %d replicas", tr.name, len(copies(cl, tr)))
		}
		// Every replica store holds the same data as the primary.
		for _, key := range []string{"alpha", "zulu"} {
			if !tr.contains([]byte(key)) {
				continue
			}
			for ri, rep := range copies(cl, tr) {
				v, ok, err := rep.Store().Get([]byte(key))
				if err != nil || !ok {
					t.Fatalf("replica %d of %s missing %q: %v", ri, tr.name, key, err)
				}
				if want := map[string]string{"alpha": "1", "zulu": "2"}[key]; string(v) != want {
					t.Fatalf("replica %d diverged on %q: %q", ri, key, v)
				}
			}
		}
	}
}

func TestReplicaPlacementDistinctServers(t *testing.T) {
	cl, err := NewCluster(testConfig(t, 8))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	splits := make([][]byte, 15)
	for i := range splits {
		splits[i] = []byte(fmt.Sprintf("s%02d", i))
	}
	tbl, err := cl.CreateTable("iot", splits)
	if err != nil {
		t.Fatal(err)
	}
	// Count regions per server; 16 regions x 3 replicas over 8 nodes = 6 each.
	for _, srv := range cl.Servers() {
		if got := srv.Stats().Regions; got != 6 {
			t.Fatalf("server %d hosts %d region replicas, want 6", srv.ID(), got)
		}
	}
	if len(tbl.regions) != 16 {
		t.Fatalf("regions = %d", len(tbl.regions))
	}
}

func TestDropTablePurgesData(t *testing.T) {
	cl, c := newTestCluster(t, 3, nil)
	c.Put([]byte("k"), []byte("v"))
	if err := c.FlushCommits(); err != nil {
		t.Fatal(err)
	}
	if err := cl.DropTable("iot"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Table("iot"); !errors.Is(err, ErrNoSuchTable) {
		t.Fatalf("dropped table still resolvable: %v", err)
	}
	// Recreate: must start empty (system cleanup semantics).
	if _, err := cl.CreateTable("iot", nil); err != nil {
		t.Fatal(err)
	}
	c2, _ := cl.NewClient("iot", 0)
	if _, ok, _ := getKey(c2, []byte("k")); ok {
		t.Fatal("data survived drop + recreate")
	}
}

// TestDropTableDestroysEveryCopy: DropTable destroys each server's copy of
// each region — the server stops hosting it and its directory is gone — and
// a recreated table's copies start empty on every server.
func TestDropTableDestroysEveryCopy(t *testing.T) {
	cl, c := newTestCluster(t, 3, [][]byte{[]byte("m")})
	for _, k := range []string{"k", "z"} {
		c.Put([]byte(k), []byte("v"))
	}
	if err := c.FlushCommits(); err != nil {
		t.Fatal(err)
	}
	tbl, _ := cl.Table("iot")
	if err := cl.DropTable("iot"); err != nil {
		t.Fatal(err)
	}
	for _, tr := range tbl.regions {
		for _, srv := range cl.servers {
			if _, err := srv.hosted(tr.name); err == nil {
				t.Fatalf("server %d still hosts dropped region %s", srv.id, tr.name)
			}
			if _, err := os.Stat(filepath.Join(srv.dir, tr.name)); !os.IsNotExist(err) {
				t.Fatalf("server %d kept the directory of %s: %v", srv.id, tr.name, err)
			}
		}
	}
	tbl, err := cl.CreateTable("iot", [][]byte{[]byte("m")})
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range tbl.regions {
		for i, rep := range copies(cl, tr) {
			for _, k := range []string{"k", "z"} {
				if _, ok, _ := rep.Store().Get([]byte(k)); ok {
					t.Fatalf("copy %d of recreated %s holds %q", i, tr.name, k)
				}
			}
		}
	}
}

// TestCreateTableRefusesRegionsOnDisk: a new cluster over the data dir of a
// closed one knows no tables, but CreateTable of a table whose regions are
// still on disk is refused — the earlier rows would come back with them —
// and the refusal leaves every file as it was.
func TestCreateTableRefusesRegionsOnDisk(t *testing.T) {
	cfg := testConfig(t, 3)
	splits := [][]byte{[]byte("m")}
	cl, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.CreateTable("iot", splits); err != nil {
		t.Fatal(err)
	}
	c, err := cl.NewClient("iot", 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"a", "z"} {
		if err := c.Put([]byte(k), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	// The rows must be acked before the cluster closes, or the client's
	// sender races the close and the row check below is flaky.
	if err := c.FlushCommits(); err != nil {
		t.Fatal(err)
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	before := dirContents(t, cfg.DataDir)

	cl, err = NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.CreateTable("iot", splits); !errors.Is(err, ErrTableExists) {
		t.Fatalf("CreateTable over a previous run's regions: %v, want ErrTableExists", err)
	}
	after := dirContents(t, cfg.DataDir)
	if len(after) != len(before) {
		t.Fatalf("%d files after the refusal, %d before", len(after), len(before))
	}
	for path, b := range before {
		if !bytes.Equal(after[path], b) {
			t.Fatalf("%s changed or vanished on a refused CreateTable", path)
		}
	}
	// The earlier rows are still there, in a store of their own.
	s, err := lsm.Open(lsm.Options{Dir: filepath.Join(cfg.DataDir, "node-01", "iot,00001"), WALSync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if v, ok, err := s.Get([]byte("z")); err != nil || !ok || string(v) != "v" {
		t.Fatalf("previous run's row: %q ok=%v err=%v", v, ok, err)
	}
}

// dirContents maps every regular file under root to its bytes.
func dirContents(t *testing.T, root string) map[string][]byte {
	t.Helper()
	files := map[string][]byte{}
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		files[path] = b
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

func TestCreateTableValidation(t *testing.T) {
	cl, err := NewCluster(testConfig(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.CreateTable("t", [][]byte{[]byte("b"), []byte("a")}); !errors.Is(err, ErrBadSplits) {
		t.Fatalf("unsorted splits: %v", err)
	}
	if _, err := cl.CreateTable("t", [][]byte{[]byte("a"), []byte("a")}); !errors.Is(err, ErrBadSplits) {
		t.Fatalf("duplicate splits: %v", err)
	}
	if _, err := cl.CreateTable("t", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.CreateTable("t", nil); !errors.Is(err, ErrTableExists) {
		t.Fatalf("duplicate table: %v", err)
	}
}

func TestClosedClusterRejectsOps(t *testing.T) {
	cl, err := NewCluster(testConfig(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	cl.Close()
	if _, err := cl.CreateTable("t", nil); !errors.Is(err, ErrClusterClosed) {
		t.Fatalf("CreateTable after close: %v", err)
	}
	if _, err := cl.Table("t"); !errors.Is(err, ErrClusterClosed) {
		t.Fatalf("Table after close: %v", err)
	}
	if err := cl.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestClosedClientRejectsOps(t *testing.T) {
	_, c := newTestCluster(t, 3, nil)
	for i := 0; i < 10; i++ {
		if err := c.Put([]byte(fmt.Sprintf("k%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	sc, err := c.newScannerChunk(nil, nil, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := sc.Next(); !ok || err != nil {
		t.Fatalf("first row: %v, %v", ok, err)
	}
	c.Close()
	// The chunk in hand drains; the next chunk would need the closed client.
	for i := 1; i < 4; i++ {
		if _, ok, err := sc.Next(); !ok || err != nil {
			t.Fatalf("row %d of the first chunk: %v, %v", i, ok, err)
		}
	}
	if _, _, err := sc.Next(); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("Scanner.Next after its client closed: %v", err)
	}
	sc.Close()
	if err := c.Put([]byte("k"), []byte("v")); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("Put after close: %v", err)
	}
	if _, err := c.Aggregate(nil, nil, 0, 1, 0, lsm.AggCount); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("Aggregate after close: %v", err)
	}
	if _, err := c.NewScanner(nil, nil, 0); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("NewScanner after close: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestConcurrentClients(t *testing.T) {
	splits := [][]byte{[]byte("c"), []byte("f"), []byte("i")}
	cl, _ := newTestCluster(t, 4, splits)
	const workers = 8
	const per = 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := cl.NewClient("iot", 8*1024)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			prefix := string(rune('a' + w%10))
			for i := 0; i < per; i++ {
				k := []byte(fmt.Sprintf("%s-%02d-%04d", prefix, w, i))
				if err := c.Put(k, bytes.Repeat([]byte{'x'}, 128)); err != nil {
					t.Errorf("put: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	c, _ := cl.NewClient("iot", 0)
	rows, err := scanAll(c, nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != workers*per {
		t.Fatalf("scan found %d rows, want %d", len(rows), workers*per)
	}
}

func TestServerStatsAccumulate(t *testing.T) {
	cl, c := newTestCluster(t, 3, nil)
	for i := 0; i < 10; i++ {
		c.Put([]byte(fmt.Sprintf("k%d", i)), []byte("v"))
	}
	scanAll(c, nil, nil, 0)
	var mutations, rows int64
	for _, s := range cl.Servers() {
		st := s.Stats()
		mutations += st.Mutations
		rows += st.RowsRead
	}
	if mutations != 10 {
		t.Fatalf("total mutations = %d, want 10", mutations)
	}
	if rows != 10 {
		t.Fatalf("total rows read = %d, want 10", rows)
	}
}
