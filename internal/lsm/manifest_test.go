package lsm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"tpcxiot/internal/wal"
)

// currentManifestPath resolves the live manifest file via CURRENT.
func currentManifestPath(t *testing.T, dir string) string {
	t.Helper()
	cur, err := os.ReadFile(filepath.Join(dir, currentName))
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Join(dir, strings.TrimSpace(string(cur)))
}

// TestManifestAuthoritativeAfterCompactionCrash simulates a crash between the
// compaction's manifest commit and the unlink of its input files: the inputs
// reappear on disk but the manifest no longer references them. Recovery must
// trust the manifest — the resurrected inputs are orphans to remove, and a
// tombstone the compaction dropped must not come back to life through them.
func TestManifestAuthoritativeAfterCompactionCrash(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, WALSync: wal.SyncNever, DisableAutoFlush: true})
	if err != nil {
		t.Fatal(err)
	}
	// Table 1: doomed holds a value; table 2: its tombstone.
	if err := s.Put([]byte("doomed"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put([]byte("kept"), []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete([]byte("doomed")); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}

	// Stash the two input tables, compact (dropping the tombstone AND the
	// shadowed value), then put the inputs back: the on-disk state of a crash
	// after the manifest commit but before the input unlink.
	var stash = map[string][]byte{}
	for _, ts := range s.TableStats() {
		data, err := os.ReadFile(ts.Path)
		if err != nil {
			t.Fatal(err)
		}
		stash[ts.Path] = data
	}
	if len(stash) != 2 {
		t.Fatalf("expected 2 input tables, have %d", len(stash))
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Tables; got != 1 {
		t.Fatalf("TableCount after full compaction = %d, want 1", got)
	}
	crashStore(t, s)
	for path, data := range stash {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	re, err := Open(Options{Dir: dir, WALSync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if _, ok, err := re.Get([]byte("doomed")); err != nil || ok {
		t.Fatalf("deleted key resurrected through orphaned compaction input: ok=%v err=%v", ok, err)
	}
	if v, ok, err := re.Get([]byte("kept")); err != nil || !ok || string(v) != "v2" {
		t.Fatalf("Get(kept) = %q,%v,%v", v, ok, err)
	}
	for path := range stash {
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("orphaned compaction input %s not removed at open", filepath.Base(path))
		}
	}
}

// TestRecoveryCleansTempAndSupersededFiles: .tmp residue and manifests CURRENT
// no longer points at are swept at open, and an orphan .sst id advances the id
// allocator so a new table never reuses a name that held different bytes.
func TestRecoveryCleansTempAndSupersededFiles(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, WALSync: wal.SyncNever, DisableAutoFlush: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	live := s.TableStats()[0].Path
	crashStore(t, s)

	// Fabricate interrupted-transition residue: a partial table write, a
	// stale manifest, and a flushed-but-never-committed table (copy of the
	// live one under a higher id).
	tmp := filepath.Join(dir, "000000000099.sst"+tmpSuffix)
	if err := os.WriteFile(tmp, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	stale := filepath.Join(dir, manifestName(0))
	if err := os.WriteFile(stale, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(live)
	if err != nil {
		t.Fatal(err)
	}
	const orphanID = 42
	orphan := filepath.Join(dir, fmt.Sprintf("%012d.sst", orphanID))
	if err := os.WriteFile(orphan, data, 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := Open(Options{Dir: dir, WALSync: wal.SyncNever, DisableAutoFlush: true})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for _, path := range []string{tmp, stale, orphan} {
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("%s survived recovery", filepath.Base(path))
		}
	}
	if v, ok, err := re.Get([]byte("k")); err != nil || !ok || string(v) != "v" {
		t.Fatalf("Get(k) = %q,%v,%v", v, ok, err)
	}
	// The next flush must allocate past the orphan's id.
	if err := re.Put([]byte("k2"), []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if err := re.Flush(); err != nil {
		t.Fatal(err)
	}
	if id := re.TableStats()[0].ID; id <= orphanID {
		t.Fatalf("new table id %d reuses the orphaned id space (orphan was %d)", id, orphanID)
	}
}

// TestManifestTornTailTruncated: a crash mid-append leaves a partial record at
// the manifest tail; recovery truncates it and the store keeps working. A
// length prefix so large that adding the CRC's four bytes wraps is torn too.
func TestManifestTornTailTruncated(t *testing.T) {
	for _, seed := range manifestSeeds(t) {
		if seed.name == "torn-tail" || seed.name == "wrapping-length" {
			t.Run(seed.name, func(t *testing.T) { tornTailRecovers(t, seed.rec) })
		}
	}
}

func tornTailRecovers(t *testing.T, tail []byte) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, WALSync: wal.SyncNever, DisableAutoFlush: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := s.Put([]byte(fmt.Sprintf("k%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	crashStore(t, s)

	man := currentManifestPath(t, dir)
	f, err := os.OpenFile(man, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(tail); err != nil {
		t.Fatal(err)
	}
	f.Close()

	re, err := Open(Options{Dir: dir, WALSync: wal.SyncNever, DisableAutoFlush: true})
	if err != nil {
		t.Fatalf("open with torn manifest tail: %v", err)
	}
	defer re.Close()
	for i := 0; i < 3; i++ {
		if v, ok, err := re.Get([]byte(fmt.Sprintf("k%d", i))); err != nil || !ok || string(v) != "v" {
			t.Fatalf("Get(k%d) = %q,%v,%v after torn-tail recovery", i, v, ok, err)
		}
	}
	// The truncated manifest must accept new commits.
	if err := re.Put([]byte("post"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := re.Flush(); err != nil {
		t.Fatal(err)
	}
}

// dirImage maps every path under dir to its contents ("" for directories).
func dirImage(t *testing.T, dir string) map[string]string {
	t.Helper()
	img := map[string]string{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			img[path] = ""
			return err
		}
		data, err := os.ReadFile(path)
		img[path] = string(data)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// TestOpenRefusesTablesWithoutManifest: tables in a directory without a
// CURRENT belong to no manifest. Open refuses them with ErrCorrupt, names
// them, and leaves every file as it was — it neither bootstraps a manifest
// over them nor removes them as orphans.
func TestOpenRefusesTablesWithoutManifest(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, WALSync: wal.SyncNever, DisableAutoFlush: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := s.Put([]byte(fmt.Sprintf("k%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, currentName)); err != nil {
		t.Fatal(err)
	}
	manifests, err := filepath.Glob(filepath.Join(dir, manifestPrefix+"*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range manifests {
		if err := os.Remove(m); err != nil {
			t.Fatal(err)
		}
	}
	tables, err := filepath.Glob(filepath.Join(dir, "*.sst"))
	if err != nil || len(tables) != 3 {
		t.Fatalf("%d tables on disk (%v), want 3", len(tables), err)
	}
	before := dirImage(t, dir)

	re, err := Open(Options{Dir: dir, WALSync: wal.SyncNever})
	if err == nil {
		re.Close()
		t.Fatal("opened a directory of tables without a manifest")
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open: %v, want ErrCorrupt", err)
	}
	for _, table := range tables {
		if !strings.Contains(err.Error(), filepath.Base(table)) {
			t.Errorf("error does not name %s: %v", filepath.Base(table), err)
		}
	}
	if after := dirImage(t, dir); !reflect.DeepEqual(before, after) {
		t.Fatalf("refused open changed the directory:\n before %d paths\n after  %d paths", len(before), len(after))
	}
}

// TestManifestRotationBoundsRecoveryCost: after far more edits than the
// rotation threshold, the directory holds exactly one manifest file whose
// replay yields the live table set — recovery cost tracks live tables, not
// store history.
func TestManifestRotationBoundsRecoveryCost(t *testing.T) {
	dir := t.TempDir()
	m := &manifest{dir: dir}
	if err := m.bootstrap(); err != nil {
		t.Fatal(err)
	}
	// Churn: add table i, delete table i-1. Live set at any point is one id.
	live := []tableMeta{}
	for i := uint64(1); i <= 3*manifestRotateEvery; i++ {
		edit := manifestEdit{Added: []tableMeta{{ID: i, Size: int64(i)}}}
		if i > 1 {
			edit.Deleted = []uint64{i - 1}
		}
		if err := m.logEdit(edit, live); err != nil {
			t.Fatal(err)
		}
		live = []tableMeta{{ID: i, Size: int64(i)}}
	}
	if err := m.close(); err != nil {
		t.Fatal(err)
	}

	matches, err := filepath.Glob(filepath.Join(dir, manifestPrefix+"*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 1 {
		t.Fatalf("%d manifest files after churn, want 1 (rotation broken)", len(matches))
	}
	re, liveSet, err := openManifest(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer re.close()
	if len(liveSet) != 1 {
		t.Fatalf("replayed live set has %d tables, want 1", len(liveSet))
	}
	want := uint64(3 * manifestRotateEvery)
	if _, ok := liveSet[want]; !ok {
		t.Fatalf("replayed live set %v missing table %d", liveSet, want)
	}
}

// manifestSeed is one FuzzManifestRecord seed: the bytes at the head of a
// manifest tail and what decodeManifestRecord must return for them (nil: the
// whole input is one record).
type manifestSeed struct {
	name    string
	rec     []byte
	wantErr error
}

// manifestSeeds are FuzzManifestRecord's seeds, replayed by
// TestManifestRecordSeeds: a valid edit and the damage replay must survive.
func manifestSeeds(t testing.TB) []manifestSeed {
	valid, err := encodeManifestRecord(manifestEdit{
		Added: []tableMeta{{ID: 7, Size: 4096, FirstKey: []byte("k0"), LastKey: []byte("k9"),
			MinTS: 1000, MaxTS: 2000, HasTS: true, Tombstones: 2, CreatedMS: 1}},
		Deleted: []uint64{3, 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	badCRC := append([]byte(nil), valid...)
	badCRC[len(badCRC)-1] ^= 0xff
	return []manifestSeed{
		{"valid-edit", valid, nil},
		// An append cut short: the length promises more than follows.
		{"torn-tail", valid[:len(valid)-3], errManifestTorn},
		{"crc-mismatch", badCRC, errManifestTorn},
		// A length of 2^64-3 and six bytes: length+4 wraps around to 1.
		{"wrapping-length", append(binary.AppendUvarint(nil, ^uint64(0)-2), make([]byte, 6)...), errManifestTorn},
	}
}

// TestManifestRecordSeeds runs every FuzzManifestRecord seed through the
// decoder in tier-1.
func TestManifestRecordSeeds(t *testing.T) {
	for _, seed := range manifestSeeds(t) {
		edit, n, err := decodeManifestRecord(seed.rec)
		if !errors.Is(err, seed.wantErr) {
			t.Errorf("%s: error %v, want %v", seed.name, err, seed.wantErr)
		}
		if err == nil && (n != len(seed.rec) || len(edit.Added) != 1 || len(edit.Deleted) != 2) {
			t.Errorf("%s: %d of %d bytes decoded to %+v", seed.name, n, len(seed.rec), edit)
		}
	}
}

// FuzzManifestRecord decodes arbitrary bytes as a manifest tail, record after
// record the way replay does: each step yields a record inside the bytes left
// or a torn/corrupt error that stops the replay — never a panic.
func FuzzManifestRecord(f *testing.F) {
	for _, seed := range manifestSeeds(f) {
		f.Add(seed.rec)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		for off := 0; off < len(b); {
			_, n, err := decodeManifestRecord(b[off:])
			if err != nil {
				if !errors.Is(err, errManifestTorn) && !errors.Is(err, ErrCorrupt) {
					t.Fatalf("offset %d: untyped error %v", off, err)
				}
				return
			}
			if n <= 0 || n > len(b)-off {
				t.Fatalf("offset %d: record of %d bytes with %d left", off, n, len(b)-off)
			}
			off += n
		}
	})
}
