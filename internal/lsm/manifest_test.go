package lsm

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"tpcxiot/internal/wal"
)

// manifestSegments lists the manifest segment files of the store in dir,
// oldest first.
func manifestSegments(t testing.TB, dir string) []string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, manifestDir, "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(segs)
	return segs
}

// lastManifestSegment is the segment the store in dir appends edits to.
func lastManifestSegment(t testing.TB, dir string) string {
	t.Helper()
	segs := manifestSegments(t, dir)
	if len(segs) == 0 {
		t.Fatalf("no manifest segment in %s", dir)
	}
	return segs[len(segs)-1]
}

// walHeaderLen is the framing wal puts before each record: its length and
// its CRC32C, four bytes each.
const walHeaderLen = 8

// manifestEdits replays the manifest of the store in dir and returns each
// edit with the offset of its record, counting the segments' bytes end to
// end.
func manifestEdits(t testing.TB, dir string) ([]manifestEdit, []int64) {
	t.Helper()
	var edits []manifestEdit
	var offs []int64
	var off int64
	err := wal.Replay(filepath.Join(dir, manifestDir), nil, func(rec []byte) error {
		var edit manifestEdit
		if err := json.Unmarshal(rec, &edit); err != nil {
			return err
		}
		edits, offs = append(edits, edit), append(offs, off)
		off += walHeaderLen + int64(len(rec))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return edits, offs
}

// manifestLive is the table set the manifest of the store in dir replays to.
func manifestLive(t *testing.T, dir string) map[uint64]tableMeta {
	t.Helper()
	_, live, err := openManifest(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	return live
}

// walFrame returns recs as wal frames them in segment seq: each record's
// length with the top bit set, which binds it to its segment, then a CRC32C
// over seq's 8 little-endian bytes and the record, then the record. A frame
// replays only in the segment it names.
func walFrame(seq uint64, recs ...[]byte) []byte {
	var b []byte
	for _, rec := range recs {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(rec))|1<<31)
		sum := append(binary.LittleEndian.AppendUint64(nil, seq), rec...)
		b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(sum, crc32.MakeTable(crc32.Castagnoli)))
		b = append(b, rec...)
	}
	return b
}

// walSegmentSeq is the sequence number in a wal segment file's name.
func walSegmentSeq(t testing.TB, path string) uint64 {
	t.Helper()
	var seq uint64
	if _, err := fmt.Sscanf(filepath.Base(path), "wal-%d.log", &seq); err != nil {
		t.Fatal(err)
	}
	return seq
}

// TestManifestAuthoritativeAfterCompactionCrash simulates a crash between the
// compaction's manifest commit and the unlink of its input files: the inputs
// reappear on disk but the manifest no longer references them. Recovery must
// trust the manifest — the resurrected inputs are orphans to remove, and the
// stale version the compaction dropped must not come back through them.
func TestManifestAuthoritativeAfterCompactionCrash(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, WALSync: wal.SyncNever, DisableAutoFlush: true})
	if err != nil {
		t.Fatal(err)
	}
	// Table 1: doomed holds a value; table 2: its overwrite.
	if err := s.Put([]byte("doomed"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put([]byte("kept"), []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.Put([]byte("doomed"), []byte("v1'")); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}

	// Stash the two input tables, compact (dropping the shadowed value),
	// then put the inputs back: the on-disk state of a crash
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
	if v, ok, err := re.Get([]byte("doomed")); err != nil || !ok || string(v) != "v1'" {
		t.Fatalf("Get(doomed) = %q,%v,%v; want the overwrite, not a version from an orphaned compaction input", v, ok, err)
	}
	if got := re.Stats().Tables; got != 1 {
		t.Fatalf("tables after reopen = %d, want the compaction output alone", got)
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

// TestRecoveryCleansTempAndSupersededFiles: .tmp residue and manifest
// segments a base has superseded are swept at open, and an orphan .sst id
// advances the id allocator so a new table never reuses a name that held
// different bytes.
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
	// superseded manifest segment (an older copy of the live one), and a
	// flushed-but-never-committed table (copy of the live one under a
	// higher id).
	tmp := filepath.Join(dir, "000000000099.sst"+tmpSuffix)
	if err := os.WriteFile(tmp, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	var recs [][]byte
	if err := wal.Replay(filepath.Join(dir, manifestDir), nil, func(rec []byte) error {
		recs = append(recs, append([]byte(nil), rec...))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	stale := filepath.Join(dir, manifestDir, "wal-00000000.log")
	if err := os.WriteFile(stale, walFrame(0, recs...), 0o644); err != nil {
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
// length field so large that adding the header's eight bytes wraps a uint32
// is torn too.
func TestManifestTornTailTruncated(t *testing.T) {
	for _, seed := range manifestSeeds(t, 1) {
		if seed.name == "torn-tail" || seed.name == "wrapping-length" {
			t.Run(seed.name, func(t *testing.T) { tornTailRecovers(t, seed.tail) })
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

	f, err := os.OpenFile(lastManifestSegment(t, dir), os.O_WRONLY|os.O_APPEND, 0o644)
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
// manifest belong to no manifest. Open refuses them with ErrCorrupt, names
// them, and leaves every file as it was — it neither writes a manifest
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
	if err := os.RemoveAll(filepath.Join(dir, manifestDir)); err != nil {
		t.Fatal(err)
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
// rotation threshold, the manifest holds exactly one segment whose replay
// yields the live table set — recovery cost tracks live tables, not store
// history.
func TestManifestRotationBoundsRecoveryCost(t *testing.T) {
	dir := t.TempDir()
	m, _, err := openManifest(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.rotate(nil); err != nil {
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

	if segs := manifestSegments(t, dir); len(segs) != 1 {
		t.Fatalf("%d manifest segments after churn, want 1 (rotation broken)", len(segs))
	}
	liveSet := manifestLive(t, dir)
	if len(liveSet) != 1 {
		t.Fatalf("replayed live set has %d tables, want 1", len(liveSet))
	}
	want := uint64(3 * manifestRotateEvery)
	if _, ok := liveSet[want]; !ok {
		t.Fatalf("replayed live set %v missing table %d", liveSet, want)
	}
}

// tableIDs lists the ids of s's live tables, ascending.
func tableIDs(s *Store) []uint64 {
	var ids []uint64
	for _, ts := range s.TableStats() {
		ids = append(ids, ts.ID)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// sstIDs lists the ids of the table files in dir, ascending.
func sstIDs(t *testing.T, dir string) []uint64 {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*.sst"))
	if err != nil {
		t.Fatal(err)
	}
	var ids []uint64
	for _, p := range paths {
		id, err := strconv.ParseUint(strings.TrimSuffix(filepath.Base(p), ".sst"), 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// copyFile copies src to dst, whose directory exists.
func copyFile(t *testing.T, src, dst string) {
	t.Helper()
	b, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// copyAbsent copies into dst every file that matches pattern in src and is
// not in skip.
func copyAbsent(t *testing.T, src, skip, dst, pattern string) {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(src, pattern))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		rel, _ := filepath.Rel(src, p)
		if _, err := os.Stat(filepath.Join(skip, rel)); err == nil {
			continue
		}
		copyFile(t, p, filepath.Join(dst, rel))
	}
}

// segmentBeforeBase fills crashed with the crash a rotation meets after
// creating its segment and before writing the base into it: before's files,
// the crashing flush's table renamed into place, and the new segment empty.
func segmentBeforeBase(t *testing.T, before, after, crashed string) {
	t.Helper()
	copyDir(t, before, crashed)
	copyAbsent(t, after, before, crashed, "*.sst")
	seg := filepath.Base(lastManifestSegment(t, after))
	if err := os.WriteFile(filepath.Join(crashed, manifestDir, seg), nil, 0o644); err != nil {
		t.Fatal(err)
	}
}

// crashPointOpts opens every store of TestManifestCrashPoints: the WAL is
// synced on every append, so a copy of a live directory holds every
// acknowledged row.
func crashPointOpts(dir string) Options {
	return Options{Dir: dir, WALSync: wal.SyncOnAppend, DisableAutoFlush: true}
}

// TestManifestCrashPoints reopens a store from each crash point of a
// manifest commit and of the rotation on the manifestRotateEvery-th edit (a
// fresh segment, a base of the live set, then the older segments
// truncated). Each case builds the crashed directory from two copies of one
// store: before, just ahead of the flush whose commit crashes, and after,
// once that flush returned. The reopened store must name the tables of the
// last whole commit, keep each of them on disk and no other table, hold
// every acknowledged row and accept a new flush. Seeds pick the table
// count, the rows per flush and where a torn append stops; a failure prints
// the seed that reproduces it.
func TestManifestCrashPoints(t *testing.T) {
	cases := []struct {
		name   string
		rotate bool // the crashing flush commits the manifestRotateEvery-th edit
		// crash fills crashed and reports whether the flush's edit is
		// committed there.
		crash func(t *testing.T, rng *rand.Rand, before, after, crashed string) bool
	}{
		{"torn-edit-append", false, func(t *testing.T, rng *rand.Rand, before, after, crashed string) bool {
			copyDir(t, before, crashed)
			copyAbsent(t, after, before, crashed, "*.sst")
			seg := lastManifestSegment(t, after)
			full, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			had, err := os.ReadFile(filepath.Join(before, manifestDir, filepath.Base(seg)))
			if err != nil {
				t.Fatal(err)
			}
			cut := len(had) + 1 + rng.Intn(len(full)-len(had)-1)
			if err := os.WriteFile(filepath.Join(crashed, manifestDir, filepath.Base(seg)), full[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			return false
		}},
		{"segment-before-base", true, func(t *testing.T, _ *rand.Rand, before, after, crashed string) bool {
			segmentBeforeBase(t, before, after, crashed)
			return false
		}},
		{"base-before-truncate", true, func(t *testing.T, _ *rand.Rand, before, after, crashed string) bool {
			copyDir(t, after, crashed)
			copyAbsent(t, before, after, crashed, filepath.Join(manifestDir, "wal-*.log"))
			return true
		}},
		{"truncate-half-done", true, func(t *testing.T, _ *rand.Rand, before, after, crashed string) bool {
			// A crash before the base leaves two older segments for the
			// next open's rotation: the last whole one and the empty one.
			// That rotation crashes with only the oldest removed, before
			// the orphaned table is swept.
			first := crashed + "-first"
			segmentBeforeBase(t, before, after, first)
			copyDir(t, first, crashed)
			s, err := Open(crashPointOpts(crashed))
			if err != nil {
				t.Fatal(err)
			}
			crashStore(t, s)
			older := manifestSegments(t, first)
			for _, seg := range older[1:] {
				copyFile(t, seg, filepath.Join(crashed, manifestDir, filepath.Base(seg)))
			}
			copyAbsent(t, first, crashed, crashed, "*.sst")
			return false
		}},
	}
	for _, c := range cases {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", c.name, seed), func(t *testing.T) {
				t.Cleanup(func() {
					if t.Failed() {
						t.Logf("seed %d reproduces this: go test -run 'TestManifestCrashPoints/%s/seed=%d$' ./internal/lsm", seed, c.name, seed)
					}
				})
				rng := rand.New(rand.NewSource(seed))
				root := t.TempDir()
				live, before, crashed := filepath.Join(root, "live"), filepath.Join(root, "before"), filepath.Join(root, "crashed")
				s, err := Open(crashPointOpts(live))
				if err != nil {
					t.Fatal(err)
				}
				rows := 0
				putMore := func() {
					next := rows + 1 + rng.Intn(20)
					putKeys(t, s, rows, next)
					rows = next
				}
				for i, n := 0, 1+rng.Intn(4); i < n; i++ {
					putMore()
					if err := s.Flush(); err != nil {
						t.Fatal(err)
					}
				}
				want := tableIDs(s)
				putMore()
				if c.rotate {
					s.manifest.records = manifestRotateEvery
				}
				copyDir(t, live, before)
				if err := s.Flush(); err != nil {
					t.Fatal(err)
				}
				flushed := tableIDs(s)
				crashStore(t, s)
				rotated := filepath.Base(lastManifestSegment(t, before)) != filepath.Base(lastManifestSegment(t, live))
				if rotated != c.rotate {
					t.Fatalf("manifest segments %v before the flush, %v after: rotated %v, want %v",
						manifestSegments(t, before), manifestSegments(t, live), rotated, c.rotate)
				}
				if c.crash(t, rng, before, live, crashed) {
					want = flushed
				}

				re, err := Open(crashPointOpts(crashed))
				if err != nil {
					t.Fatalf("reopen: %v", err)
				}
				if got := tableIDs(re); !reflect.DeepEqual(got, want) {
					t.Fatalf("reopened store names tables %v, want %v", got, want)
				}
				if got := sstIDs(t, crashed); !reflect.DeepEqual(got, want) {
					t.Fatalf("table files %v on disk, want the live set %v", got, want)
				}
				checkKeys(t, re, rows)
				putKeys(t, re, rows, rows+5)
				if err := re.Flush(); err != nil {
					t.Fatalf("flush after reopen: %v", err)
				}
				if err := re.Close(); err != nil {
					t.Fatal(err)
				}
				again, err := Open(crashPointOpts(crashed))
				if err != nil {
					t.Fatal(err)
				}
				defer again.Close()
				checkKeys(t, again, rows+5)
				if got := len(tableIDs(again)); got != len(want)+1 {
					t.Fatalf("%d tables after a flush on the reopened store, want %d", got, len(want)+1)
				}
			})
		}
	}
}

// manifestSeed is one FuzzManifestReplay seed: bytes that make the
// manifest's last segment, after one whose only record is a base, and the
// error Open must return for them (nil: a store).
type manifestSeed struct {
	name    string
	tail    []byte
	wantErr error
}

// manifestSeeds are FuzzManifestReplay's seeds, framed for manifest segment
// seq and replayed by TestManifestRecordSeeds: a valid edit, the damage a
// crash leaves, which replay drops, and whole records Open must refuse.
func manifestSeeds(t testing.TB, seq uint64) []manifestSeed {
	record := func(edit manifestEdit) []byte {
		b, err := json.Marshal(edit)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	valid := walFrame(seq, record(manifestEdit{Deleted: []uint64{3, 5}}))
	badCRC := append([]byte(nil), valid...)
	badCRC[len(badCRC)-1] ^= 0xff
	return []manifestSeed{
		{"valid-edit", valid, nil},
		// An append cut short: the length promises more than follows.
		{"torn-tail", valid[:len(valid)-3], nil},
		{"crc-mismatch", badCRC, nil},
		// A length field of 2^32-1 and ten bytes: length+8 wraps a uint32.
		{"wrapping-length", append(binary.LittleEndian.AppendUint32(nil, math.MaxUint32), make([]byte, 10)...), nil},
		{"empty-base", walFrame(seq, record(manifestEdit{Base: true})), nil},
		{"edit-then-garbage", append(valid, 0xde, 0xad, 0xbe, 0xef), nil},
		{"bad-json", walFrame(seq, []byte(`{"added":`)), ErrCorrupt},
		{"missing-table", walFrame(seq, record(manifestEdit{Added: []tableMeta{{ID: 99, Size: 4096}}})), ErrCorrupt},
		{"table-with-deletes", walFrame(seq, record(manifestEdit{Base: true, Added: []tableMeta{{ID: 0, Tombstones: 2}}})), ErrCorrupt},
	}
}

// manifestTemplate builds a store of one table whose manifest is a single
// segment holding a single base, and returns its directory and the sequence
// number of the segment after that one. The second open writes that base;
// the store then crashes, so no close flushes a table after it.
func manifestTemplate(t testing.TB) (dir string, next uint64) {
	dir = t.TempDir()
	s, err := Open(Options{Dir: dir, WALSync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s, err = Open(Options{Dir: dir, WALSync: wal.SyncNever}); err != nil {
		t.Fatal(err)
	}
	crashStore(t, s)
	segs := manifestSegments(t, dir)
	if len(segs) != 1 {
		t.Fatalf("template manifest has segments %v, want one", segs)
	}
	if edits, _ := manifestEdits(t, dir); len(edits) != 1 || !edits[0].Base || len(edits[0].Added) != 1 || edits[0].Added[0].ID != 0 {
		t.Fatalf("template manifest holds %+v, want one base naming table 0", edits)
	}
	return dir, walSegmentSeq(t, segs[0]) + 1
}

// openWithManifestTail opens a copy of the template store with tail as the
// manifest's last segment. A store that opens must close and open again.
func openWithManifestTail(t *testing.T, template string, next uint64, tail []byte) error {
	dir := t.TempDir()
	copyDir(t, template, dir)
	if err := os.WriteFile(filepath.Join(dir, manifestDir, fmt.Sprintf("wal-%08d.log", next)), tail, 0o644); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		s, err := Open(Options{Dir: dir, WALSync: wal.SyncNever})
		if err != nil {
			if i > 0 {
				t.Fatalf("reopen of a store that opened: %v", err)
			}
			return err
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return nil
}

// TestManifestRecordSeeds opens the template store behind every
// FuzzManifestReplay seed in tier-1.
func TestManifestRecordSeeds(t *testing.T) {
	template, next := manifestTemplate(t)
	for _, seed := range manifestSeeds(t, next) {
		err := openWithManifestTail(t, template, next, seed.tail)
		if !errors.Is(err, seed.wantErr) {
			t.Errorf("%s: Open = %v, want %v", seed.name, err, seed.wantErr)
		}
	}
}

// FuzzManifestReplay opens a store whose manifest's last segment is
// arbitrary bytes, after a segment holding one valid base: Open returns a
// store or ErrCorrupt, never panics, and a store that opened opens again.
func FuzzManifestReplay(f *testing.F) {
	template, next := manifestTemplate(f)
	for _, seed := range manifestSeeds(f, next) {
		f.Add(seed.tail)
	}
	f.Fuzz(func(t *testing.T, tail []byte) {
		if err := openWithManifestTail(t, template, next, tail); err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("Open = %v, want a store or ErrCorrupt", err)
		}
	})
}
