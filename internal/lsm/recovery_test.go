package lsm

import (
	"bytes"
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

// crashStore simulates a crash: sync the WAL so the OS-level state is what
// a power loss after the last acknowledged write would leave, then abandon
// the store without flushing memtables or closing cleanly. A real crash
// also kills background flush/compaction goroutines; in-process they would
// keep mutating the directory under the reopened store, so quiesce them
// first — any maintenance pass is then a completed (valid) crash point.
func crashStore(t *testing.T, s *Store) {
	t.Helper()
	s.stopOnce.Do(func() { close(s.quit) }) // stop the background compactor
	s.bg.Wait()
	s.maintMu.Lock()
	s.maintMu.Unlock()
	s.compactMu.Lock()
	s.compactMu.Unlock()
	if err := s.log.Sync(); err != nil {
		t.Fatal(err)
	}
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

// TestTableRenameSyncedBeforeManifestCommit: a flushed or compacted table's
// directory entry is synced after its rename and before the manifest commit
// that names it. Otherwise a power loss could keep the commit and lose the
// entry, after the WAL that held the table's rows was truncated.
func TestTableRenameSyncedBeforeManifestCommit(t *testing.T) {
	dir := t.TempDir()
	manifest := filepath.Join(dir, manifestName(1))
	// syncedAt maps each table file to the manifest's size when a sync of
	// the store directory first found the file renamed into place.
	var mu sync.Mutex
	syncedAt := map[string]int64{}
	defer func(orig func(string)) { syncDir = orig }(syncDir)
	syncDir = func(d string) {
		wal.SyncDir(d)
		if d != dir {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		tables, _ := filepath.Glob(filepath.Join(dir, "*.sst"))
		for _, name := range tables {
			if _, ok := syncedAt[name]; !ok {
				fi, err := os.Stat(manifest)
				if err != nil {
					t.Error(err)
					return
				}
				syncedAt[name] = fi.Size()
			}
		}
	}

	s, err := Open(Options{Dir: dir, WALSync: wal.SyncNever, DisableAutoFlush: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for round := 0; round < 2; round++ {
		putKeys(t, s, round*10, round*10+10)
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	committed := 0
	for off := 0; off < len(data); {
		edit, n, err := decodeManifestRecord(data[off:])
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range edit.Added {
			committed++
			at, ok := syncedAt[s.tablePath(m.ID)]
			switch {
			case !ok:
				t.Errorf("table %d: committed with no directory sync after its rename", m.ID)
			case at > int64(off):
				t.Errorf("table %d: directory first synced with %d manifest bytes, after the commit at %d", m.ID, at, off)
			}
		}
		off += n
	}
	if committed != 3 {
		t.Fatalf("manifest names %d tables, want 2 flushes and 1 compaction output", committed)
	}
}
