package lsm

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"tpcxiot/internal/wal"
)

// crashStore simulates a crash: abandon the store without flushing
// memtables or closing cleanly. Every acknowledged write is in its WAL file
// already, which is what a process crash leaves. A real crash
// also kills background flush/compaction goroutines; in-process they would
// keep mutating the directory under the reopened store, so quiesce them
// first — any maintenance pass is then a completed (valid) crash point.
func crashStore(t testing.TB, s *Store) {
	t.Helper()
	s.stopOnce.Do(func() { close(s.quit) }) // stop the background compactor
	s.bg.Wait()
	s.maintMu.Lock()
	s.maintMu.Unlock()
	s.compactMu.Lock()
	s.compactMu.Unlock()
	s.log.Close() // release the file lock-equivalent so reopen works
	s.manifest.close()
}

// TestCrashRecoveryProperty: after any sequence of puts/explicit flushes
// followed by a crash, reopening the store yields exactly the model's state
// — nothing lost, no stale version back.
func TestCrashRecoveryProperty(t *testing.T) {
	type op struct {
		Flush bool
		K, V  uint8
	}
	f := func(ops []op) bool {
		dir := t.TempDir()
		s, err := Open(Options{Dir: dir, WALSync: wal.SyncNever, DisableAutoFlush: true})
		if err != nil {
			t.Fatal(err)
		}
		model := map[string]string{}
		for _, o := range ops {
			k := fmt.Sprintf("key-%03d", o.K%32) // small keyspace: overwrites happen
			switch {
			case o.Flush:
				if err := s.Flush(); err != nil {
					t.Fatal(err)
				}
			default:
				v := fmt.Sprintf("val-%03d", o.V)
				if err := s.Put([]byte(k), []byte(v)); err != nil {
					t.Fatal(err)
				}
				model[k] = v
			}
		}
		crashStore(t, s)

		re, err := Open(Options{Dir: dir, WALSync: wal.SyncNever})
		if err != nil {
			t.Fatal(err)
		}
		defer re.Close()

		// Point reads match the model.
		for k, v := range model {
			got, ok, err := re.Get([]byte(k))
			if err != nil || !ok || string(got) != v {
				t.Logf("lost %q after crash: %q,%v,%v", k, got, ok, err)
				return false
			}
		}
		// Scan yields exactly the model's keys in order.
		want := make([]string, 0, len(model))
		for k := range model {
			want = append(want, k)
		}
		sort.Strings(want)
		i := 0
		scanOK := true
		err = scan(re, nil, nil, func(k, v []byte) error {
			if i >= len(want) || string(k) != want[i] || string(v) != model[want[i]] {
				scanOK = false
			}
			i++
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return scanOK && i == len(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestCrashDuringHeavyIngest writes a realistic kvp-shaped stream with
// auto-flushes and compactions racing, crashes, and verifies the recovered
// store contains every acknowledged write.
func TestCrashDuringHeavyIngest(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{
		Dir:            dir,
		WALSync:        wal.SyncNever,
		MemtableSize:   64 << 10, // force frequent flushes
		CompactTrigger: 3,
		MaxStoreFiles:  6,
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 3000
	val := make([]byte, 512)
	for i := 0; i < n; i++ {
		if err := s.Put([]byte(fmt.Sprintf("reading-%08d", i)), val); err != nil {
			t.Fatal(err)
		}
	}
	// Give in-flight background flushes a chance to finish, then crash.
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	crashStore(t, s)

	re, err := Open(Options{Dir: dir, WALSync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	count := 0
	if err := scan(re, nil, nil, func(k, v []byte) error { count++; return nil }); err != nil {
		t.Fatal(err)
	}
	if count != n {
		t.Fatalf("recovered %d of %d acknowledged writes", count, n)
	}
}

// copyDir copies the directory tree at src to dst, the way a crash leaves
// a store on disk: whatever its files hold at this instant.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), b, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// tornTails are the tails a crash can leave on the last WAL segment: the
// zeros of a file extended but never written, and a header of garbage.
var tornTails = []struct {
	name  string
	bytes []byte
}{
	{"zeros", make([]byte, 4<<10)},
	{"ff-header", bytes.Repeat([]byte{0xff}, 8)},
}

// tearLastSegment appends tail to the last WAL segment of the store in dir.
func tearLastSegment(t *testing.T, dir string, tail []byte) {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal", "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no WAL segment: %v", err)
	}
	f, err := os.OpenFile(segs[len(segs)-1], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(tail); err != nil {
		t.Fatal(err)
	}
}

// putKeys writes key-NN = val-NN for NN in [from, to).
func putKeys(t *testing.T, s *Store, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		if err := s.Put([]byte(fmt.Sprintf("key-%02d", i)), []byte(fmt.Sprintf("val-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
}

// checkKeys asserts that key-NN = val-NN for every NN below n.
func checkKeys(t *testing.T, s *Store, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		k, want := fmt.Sprintf("key-%02d", i), fmt.Sprintf("val-%02d", i)
		if got, ok, err := s.Get([]byte(k)); err != nil || !ok || string(got) != want {
			t.Fatalf("%s after reopen: %q, %v, %v", k, got, ok, err)
		}
	}
}

// TestTornWALTailReopens: writes acknowledged under SyncOnAppend survive
// the tails a crash can leave on the last WAL segment, and the store
// reopens with every one of them.
func TestTornWALTailReopens(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, WALSync: wal.SyncOnAppend, DisableAutoFlush: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const keys = 10
	putKeys(t, s, 0, keys)
	for _, tail := range tornTails {
		t.Run(tail.name, func(t *testing.T) {
			crashed := filepath.Join(t.TempDir(), "store")
			copyDir(t, dir, crashed)
			tearLastSegment(t, crashed, tail.bytes)

			re, err := Open(Options{Dir: crashed, WALSync: wal.SyncNever})
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			checkKeys(t, re, keys)
		})
	}
}

// TestTornWALTailSurvivesSecondCrash: the reopen that tolerates a torn tail
// also cuts it off, so after more acknowledged writes — now in a later
// segment — a second crash and reopen recover every one of them. Left in
// place, the tail would sit in a segment that is no longer the last, where
// replay refuses it as corrupt.
func TestTornWALTailSurvivesSecondCrash(t *testing.T) {
	opts := func(dir string) Options {
		return Options{Dir: dir, WALSync: wal.SyncOnAppend, DisableAutoFlush: true}
	}
	for _, tail := range tornTails {
		t.Run(tail.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(opts(dir))
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			putKeys(t, s, 0, 10)
			crashed := filepath.Join(t.TempDir(), "store")
			copyDir(t, dir, crashed)
			tearLastSegment(t, crashed, tail.bytes)

			re, err := Open(opts(crashed))
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			putKeys(t, re, 10, 20)
			again := filepath.Join(t.TempDir(), "store")
			copyDir(t, crashed, again)

			last, err := Open(opts(again))
			if err != nil {
				t.Fatal(err)
			}
			defer last.Close()
			checkKeys(t, last, 20)
		})
	}
}

// TestTornBatchReplaysWholeOrNone cuts the WAL at every byte of its last
// record, a batch of six rows, and in a second copy flips that byte, then
// reopens: the store holds every row of the batches before it, and all of
// the torn batch's rows or none of them.
func TestTornBatchReplaysWholeOrNone(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, WALSync: wal.SyncNever, DisableAutoFlush: true})
	if err != nil {
		t.Fatal(err)
	}
	putBatch := func(from, to int) {
		t.Helper()
		var ws []Write
		for i := from; i < to; i++ {
			ws = append(ws, Write{Key: []byte(fmt.Sprintf("key-%02d", i)), Value: []byte(fmt.Sprintf("val-%02d", i))})
		}
		if err := s.ApplyBatch(ws); err != nil {
			t.Fatal(err)
		}
	}
	segSize := func(dir string) (string, int64) {
		t.Helper()
		segs := walSegments(t, dir)
		if len(segs) != 1 {
			t.Fatalf("WAL segments %v, want one", segs)
		}
		info, err := os.Stat(filepath.Join(dir, "wal", segs[0]))
		if err != nil {
			t.Fatal(err)
		}
		return info.Name(), info.Size()
	}
	const before, rows = 8, 6
	putBatch(0, 4)
	putBatch(4, before)
	_, start := segSize(dir)
	putBatch(before, before+rows)
	seg, end := segSize(dir)
	crashStore(t, s)

	tears := map[string]func(path string, at int64) error{
		"cut": os.Truncate,
		"flip": func(path string, at int64) error {
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			b[at] ^= 0x40
			return os.WriteFile(path, b, 0o644)
		},
	}
	for name, tear := range tears {
		for at := start; at < end; at++ {
			crashed := filepath.Join(t.TempDir(), "store")
			copyDir(t, dir, crashed)
			if err := tear(filepath.Join(crashed, "wal", seg), at); err != nil {
				t.Fatal(err)
			}
			re, err := Open(Options{Dir: crashed, WALSync: wal.SyncNever})
			if err != nil {
				t.Fatalf("%s at byte %d of [%d, %d): %v", name, at, start, end, err)
			}
			checkKeys(t, re, before)
			n := 0
			for i := before; i < before+rows; i++ {
				if _, ok, err := re.Get([]byte(fmt.Sprintf("key-%02d", i))); err != nil {
					t.Fatal(err)
				} else if ok {
					n++
				}
			}
			if n != 0 && n != rows {
				t.Fatalf("%s at byte %d of [%d, %d): %d of the torn batch's %d rows came back", name, at, start, end, n, rows)
			}
			if err := re.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestWALOfRowRecordsReplays: testdata/rowwal holds the WAL a crash left
// when every record held one put: three batches of four rows, row-00 to
// row-11, then a lone put of "again" over row-03, 13 records in all. It
// opens and replays as 13 batches of one row.
func TestWALOfRowRecordsReplays(t *testing.T) {
	dir := t.TempDir()
	copyDir(t, filepath.Join("testdata", "rowwal"), dir)
	if n := walRecords(t, dir); n != 13 {
		t.Fatalf("testdata/rowwal replays %d records, want 13", n)
	}
	s, err := Open(Options{Dir: dir, WALSync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 12; i++ {
		k, want := fmt.Sprintf("row-%02d", i), fmt.Sprintf("val-%02d", i)
		if i == 3 {
			want = "again"
		}
		if got, ok, err := s.Get([]byte(k)); err != nil || !ok || string(got) != want {
			t.Fatalf("%s = %q, %v, %v; want %q", k, got, ok, err, want)
		}
	}
	if st := s.Stats(); st.MemtableBytes == 0 || st.Tables != 0 {
		t.Fatalf("reopened store holds %d memtable bytes and %d tables, want the rows in the memtable", st.MemtableBytes, st.Tables)
	}
}

// TestWALOfUnboundBatchRecordsReplays: testdata/batchwal holds the WAL a
// crash left when records were bound to no segment: three batches of four
// rows, row-00 to row-11, then a batch of "again" over row-03 and row-12, 4
// records in all. It opens and replays every row. The segment was found at
// Open, so the flush that retires it removes it rather than keep it as the
// spare: only segments of records bound to their segment are reused.
func TestWALOfUnboundBatchRecordsReplays(t *testing.T) {
	dir := t.TempDir()
	copyDir(t, filepath.Join("testdata", "batchwal"), dir)
	if n := walRecords(t, dir); n != 4 {
		t.Fatalf("testdata/batchwal replays %d records, want 4", n)
	}
	opts := Options{Dir: dir, WALSync: wal.SyncNever}
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	check := func(s *Store) {
		t.Helper()
		for i := 0; i <= 12; i++ {
			k, want := fmt.Sprintf("row-%02d", i), fmt.Sprintf("val-%02d", i)
			if i == 3 {
				want = "again"
			}
			if got, ok, err := s.Get([]byte(k)); err != nil || !ok || string(got) != want {
				t.Fatalf("%s = %q, %v, %v; want %q", k, got, ok, err, want)
			}
		}
	}
	check(s)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "wal", "wal-00000001.spare")); !os.IsNotExist(err) {
		t.Fatalf("the flush kept segment 1, found at Open, as a spare (%v)", err)
	}
	crashStore(t, s)
	if s, err = Open(opts); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	check(s)
}

// TestTableRenameSyncedBeforeManifestCommit: a flushed or compacted table's
// directory entry is synced after its rename and before the manifest commit
// that names it. Otherwise a power loss could keep the commit and lose the
// entry, after the WAL that held the table's rows was truncated.
func TestTableRenameSyncedBeforeManifestCommit(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, WALSync: wal.SyncNever, DisableAutoFlush: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	manifest := lastManifestSegment(t, dir)
	// syncedAt maps each table file to the manifest's size when a sync of
	// the store directory first found the file renamed into place.
	var mu sync.Mutex
	syncedAt := map[string]int64{}
	defer func(orig func(string) error) { syncDir = orig }(syncDir)
	syncDir = func(d string) error {
		if d != dir {
			return wal.SyncDir(d)
		}
		mu.Lock()
		defer mu.Unlock()
		tables, _ := filepath.Glob(filepath.Join(dir, "*.sst"))
		for _, name := range tables {
			if _, ok := syncedAt[name]; !ok {
				fi, err := os.Stat(manifest)
				if err != nil {
					t.Error(err)
					break
				}
				syncedAt[name] = fi.Size()
			}
		}
		return wal.SyncDir(d)
	}

	for round := 0; round < 2; round++ {
		putKeys(t, s, round*10, round*10+10)
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}

	if segs := manifestSegments(t, dir); len(segs) != 1 || segs[0] != manifest {
		t.Fatalf("manifest segments %v, want %s alone", segs, manifest)
	}
	edits, offs := manifestEdits(t, dir)
	mu.Lock()
	defer mu.Unlock()
	committed := 0
	for i, edit := range edits {
		for _, m := range edit.Added {
			committed++
			at, ok := syncedAt[s.tablePath(m.ID)]
			switch {
			case !ok:
				t.Errorf("table %d: committed with no directory sync after its rename", m.ID)
			case at > offs[i]:
				t.Errorf("table %d: directory first synced with %d manifest bytes, after the commit at %d", m.ID, at, offs[i])
			}
		}
	}
	if committed != 3 {
		t.Fatalf("manifest names %d tables, want 2 flushes and 1 compaction output", committed)
	}
}

// TestFailedDirSyncFailsFlush: when the store directory's sync after a
// table's rename fails, the flush fails before its manifest commit, and
// every acknowledged row still comes back after Close and reopen.
func TestFailedDirSyncFailsFlush(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Dir: dir, WALSync: wal.SyncOnAppend, DisableAutoFlush: true}
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	putKeys(t, s, 0, 10)

	sentinel := errors.New("directory sync failed")
	orig := syncDir
	defer func() { syncDir = orig }()
	syncDir = func(d string) error {
		if d == dir {
			return sentinel
		}
		return orig(d)
	}
	if err := s.Flush(); !errors.Is(err, sentinel) {
		t.Fatalf("Flush with a failing directory sync = %v, want %v", err, sentinel)
	}
	if live := manifestLive(t, dir); len(live) != 0 {
		t.Fatalf("manifest names %d tables after the failed flush, want 0", len(live))
	}

	syncDir = orig
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	again, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	checkKeys(t, again, 10)
}
