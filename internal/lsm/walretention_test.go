package lsm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tpcxiot/internal/kvp"
	"tpcxiot/internal/wal"
)

// walSegments lists the WAL segment files of the store in dir, oldest
// first, by base name.
func walSegments(t testing.TB, dir string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "wal", "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range paths {
		paths[i] = filepath.Base(p)
	}
	return paths
}

// walRecords counts the records a replay of the store's WAL in dir hands
// over.
func walRecords(t testing.TB, dir string) int {
	t.Helper()
	n := 0
	if err := wal.Replay(filepath.Join(dir, "wal"), nil, func([]byte) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	return n
}

// TestCleanCloseLeavesNoWALRecord: the final Flush of a clean Close rolls
// the WAL and truncates the segments behind the roll, so the next Open
// replays nothing and a second Close writes no second table of the row.
// Close removes the spare a truncated segment became.
func TestCleanCloseLeavesNoWALRecord(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Dir: dir, WALSync: wal.SyncOnAppend}
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put([]byte("row"), []byte("value")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if spares, _ := filepath.Glob(filepath.Join(dir, "wal", "*.spare")); len(spares) != 0 {
		t.Fatalf("WAL spares %v after a clean Close", spares)
	}
	re, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if n := walRecords(t, dir); n != 0 {
		t.Fatalf("the WAL hands over %d records after a clean Close, want 0", n)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	if ids := sstIDs(t, dir); len(ids) != 1 {
		t.Fatalf("tables %v after a second Close, want one", ids)
	}
	last, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer last.Close()
	if v, ok, err := last.Get([]byte("row")); err != nil || !ok || string(v) != "value" {
		t.Fatalf("row after reopen: %q, %v, %v", v, ok, err)
	}
	if st := last.Stats(); st.Tables != 1 || st.MemtableBytes != 0 {
		t.Fatalf("reopened store holds %d tables and %d memtable bytes, want 1 and 0", st.Tables, st.MemtableBytes)
	}
}

// fileSizes maps the base name of each file matching pattern to its size.
func fileSizes(t testing.TB, pattern string) map[string]int64 {
	t.Helper()
	paths, err := filepath.Glob(pattern)
	if err != nil {
		t.Fatal(err)
	}
	sizes := make(map[string]int64, len(paths))
	for _, p := range paths {
		info, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		sizes[filepath.Base(p)] = info.Size()
	}
	return sizes
}

// TestWALBoundedUnderIngest runs four writers into 1 MiB memtables, 40 MiB
// in all, beside a goroutine that checks the WAL between flushes and calls
// Flush now and then. With no flush in flight, the WAL's segments hold no
// more than walRollEvery memtables' worth of bytes plus the records of the
// memtables not yet flushed; the active segment counts its records, not the
// bytes its file may still hold from an earlier life as a spare. Beside them
// lies at most one spare, no larger than a segment. The active memtable
// never holds more than memstoreBlockMultiplier times MemtableSize plus the
// batch each writer may add after its check. Copies of the directory taken
// between flushes reopen with every row acked before the copy began.
func TestWALBoundedUnderIngest(t *testing.T) {
	const (
		memtableSize = 1 << 20
		writers      = 4
		batchRows    = 16
		valueLen     = 1000
		rowsPerW     = (40 << 20) / valueLen / writers
	)
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, MemtableSize: memtableSize, WALSync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	key := func(w int, ts int64) []byte {
		return kvp.Key{Substation: fmt.Sprintf("sub%d", w), Sensor: "s", Timestamp: ts}.Encode()
	}
	value := bytes.Repeat([]byte{'v'}, valueLen)

	var acked [writers]atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			batch := make([]Write, 0, batchRows)
			for next := int64(0); next < rowsPerW; {
				batch = batch[:0]
				for ; len(batch) < batchRows && next < rowsPerW; next++ {
					batch = append(batch, Write{Key: key(w, next), Value: value})
				}
				if err := s.ApplyBatch(batch); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				acked[w].Store(next)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()

	type snapshot struct {
		dir   string
		acked [writers]int64
	}
	var copies []snapshot
	checks := 0
	// check measures the WAL with flushes held off, so no truncation is
	// half done, and memtables read after the WAL hold at least its
	// unflushed records.
	// A row costs its op byte and two lengths beyond the memtable entry, and
	// a batch one record header.
	batchBytes := int64(batchRows*(len(key(0, 0))+valueLen+1+2*binary.MaxVarintLen32) + 8)
	check := func() {
		s.maintMu.Lock()
		defer s.maintMu.Unlock()
		s.rollMu.Lock() // no roll moves the spare into place meanwhile
		defer s.rollMu.Unlock()
		active, activeBytes := s.log.Active()
		var walBytes int64
		for name, size := range fileSizes(t, filepath.Join(dir, "wal", "wal-*.log")) {
			if name == fmt.Sprintf("wal-%08d.log", active) {
				size = activeBytes
			}
			walBytes += size
		}
		spares := fileSizes(t, filepath.Join(dir, "wal", "wal-*.spare"))
		s.mu.RLock()
		activeMem := s.active.Size()
		unflushed, entries := activeMem, s.active.Len()
		if s.imm != nil {
			unflushed, entries = unflushed+s.imm.Size(), entries+s.imm.Len()
		}
		s.mu.RUnlock()
		bound := walRollEvery*memtableSize + unflushed + entries*(8+binary.MaxVarintLen32)
		if walBytes > bound {
			t.Errorf("check %d: WAL holds %d bytes, bound %d (%d unflushed in %d entries)",
				checks, walBytes, bound, unflushed, entries)
		}
		if len(spares) > 1 {
			t.Errorf("check %d: WAL spares %v, want at most one", checks, spares)
		}
		for name, size := range spares {
			if size > walRollEvery*memtableSize+batchBytes {
				t.Errorf("check %d: spare %s holds %d bytes, more than a segment", checks, name, size)
			}
		}
		if limit := memstoreBlockMultiplier*memtableSize + writers*batchBytes; activeMem > limit {
			t.Errorf("check %d: active memtable holds %d bytes, limit %d", checks, activeMem, limit)
		}
		checks++
	}
	// snap copies the directory with flushes and compactions held off, so
	// the copy holds no half-done table-set change.
	snap := func(progress int64) {
		s.maintMu.Lock()
		s.compactMu.Lock()
		defer s.maintMu.Unlock()
		defer s.compactMu.Unlock()
		c := snapshot{dir: filepath.Join(t.TempDir(), "copy")}
		for w := range acked {
			c.acked[w] = acked[w].Load()
		}
		copyDir(t, dir, c.dir)
		copies = append(copies, c)
		t.Logf("copy %d at %d%% of the rows", len(copies), progress)
	}
	for i, running := 0, true; running; i++ {
		select {
		case <-done:
			running = false
			continue
		case <-time.After(5 * time.Millisecond):
		}
		check()
		if i%3 == 2 {
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
			check()
		}
		var progress int64
		for w := range acked {
			progress += acked[w].Load()
		}
		// A copy at each quarter of the run.
		if progress = progress * 100 / (writers * rowsPerW); progress >= 25*int64(len(copies)+1) && len(copies) < 3 {
			snap(progress)
		}
	}
	if t.Failed() {
		return
	}
	check()
	t.Logf("%d checks", checks)
	if len(copies) == 0 {
		t.Fatal("the run ended before a copy")
	}
	if st := s.Stats(); st.WALBytes < 40<<20 {
		t.Fatalf("the run wrote %d WAL bytes; the test wants 40 MiB", st.WALBytes)
	}

	for i, c := range copies {
		re, err := Open(Options{Dir: c.dir, MemtableSize: memtableSize, WALSync: wal.SyncNever})
		if err != nil {
			t.Fatalf("copy %d: %v", i, err)
		}
		for w := 0; w < writers; w++ {
			lo, hi := key(w, 0), key(w, rowsPerW)
			var n int64
			err := scan(re, lo, hi, func(k, v []byte) error {
				if !bytes.Equal(k, key(w, n)) || !bytes.Equal(v, value) {
					return fmt.Errorf("row %d of writer %d: key %x", n, w, k)
				}
				n++
				return nil
			})
			if err != nil {
				t.Fatalf("copy %d: %v", i, err)
			}
			if n < c.acked[w] {
				t.Fatalf("copy %d holds %d rows of writer %d, %d were acked before it", i, n, w, c.acked[w])
			}
		}
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
		os.RemoveAll(c.dir)
	}
}

// TestWALRetentionCrashPoints reopens a store from each crash point of the
// WAL retention rule: after a memtable swap that rolled the log, before its
// flush; after the flush's manifest commit, before its Truncate; and with
// that Truncate half done, its oldest segments gone. Each crashed directory
// is built from copies of one store taken before and after the step, which
// runs after one to three crashes and reopens, so the flush truncates as
// many segments. Every acked row must be back. In the last two states the
// surviving older segments hold rows the new table holds too: the reopened
// store replays them and its next flush writes them once more. That is the
// only cost: no row is lost or comes back stale. Seeds pick the flushes,
// the reopens, the rows in each and how much of Truncate is done; a failure
// prints the seed that reproduces it.
func TestWALRetentionCrashPoints(t *testing.T) {
	cases := []struct {
		name string
		// crash runs the step on the live store s, whose directory before
		// holds a copy taken just ahead of it, fills crashed with what a
		// crash there leaves, and reports whether the step committed a table.
		crash func(t *testing.T, rng *rand.Rand, s *Store, live, before, crashed string) bool
	}{
		{"rolled-before-flush", func(t *testing.T, _ *rand.Rand, s *Store, live, before, crashed string) bool {
			s.maintMu.Lock()
			defer s.maintMu.Unlock()
			if _, swapped, err := s.swapMemtable(true); err != nil || !swapped {
				t.Fatalf("swap: %v, swapped %v", err, swapped)
			}
			copyDir(t, live, crashed)
			if got, had := walSegments(t, crashed), walSegments(t, before); len(got) != len(had)+1 {
				t.Fatalf("WAL segments %v after the swap, %v before: no roll", got, had)
			}
			return false
		}},
		{"commit-before-truncate", func(t *testing.T, _ *rand.Rand, s *Store, live, before, crashed string) bool {
			crashMidTruncate(t, live, before, crashed, flushTruncated(t, s, live, before), 0)
			return true
		}},
		{"truncate-half-done", func(t *testing.T, rng *rand.Rand, s *Store, live, before, crashed string) bool {
			truncated := flushTruncated(t, s, live, before)
			crashMidTruncate(t, live, before, crashed, truncated, 1+rng.Intn(len(truncated)-1))
			return true
		}},
	}
	for _, c := range cases {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", c.name, seed), func(t *testing.T) {
				t.Cleanup(func() {
					if t.Failed() {
						t.Logf("seed %d reproduces this: go test -run 'TestWALRetentionCrashPoints/%s/seed=%d$' ./internal/lsm", seed, c.name, seed)
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
				for i, n := 0, rng.Intn(3); i < n; i++ {
					putMore()
					if err := s.Flush(); err != nil {
						t.Fatal(err)
					}
				}
				for i, n := 0, 1+rng.Intn(3); i < n; i++ {
					putMore()
					crashStore(t, s)
					if s, err = Open(crashPointOpts(live)); err != nil {
						t.Fatal(err)
					}
				}
				putMore()
				want := tableIDs(s)
				copyDir(t, live, before)
				if c.crash(t, rng, s, live, before, crashed) {
					want = tableIDs(s)
				}
				crashStore(t, s)

				re, err := Open(crashPointOpts(crashed))
				if err != nil {
					t.Fatalf("reopen: %v", err)
				}
				if got := tableIDs(re); !reflect.DeepEqual(got, want) {
					t.Fatalf("reopened store names tables %v, want %v", got, want)
				}
				checkKeys(t, re, rows)
				putKeys(t, re, rows, rows+5)
				if err := re.Close(); err != nil {
					t.Fatal(err)
				}
				if n := walRecords(t, crashed); n != 0 {
					t.Fatalf("the WAL hands over %d records after a clean Close", n)
				}
				again, err := Open(crashPointOpts(crashed))
				if err != nil {
					t.Fatal(err)
				}
				defer again.Close()
				checkKeys(t, again, rows+5)
				if got := len(tableIDs(again)); got != len(want)+1 {
					t.Fatalf("%d tables after the reopened store's Close, want %d", got, len(want)+1)
				}
			})
		}
	}
}

// flushTruncated flushes s and returns the WAL segments of before, oldest
// first, that the flush truncated: two or more.
func flushTruncated(t *testing.T, s *Store, live, before string) []string {
	t.Helper()
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	kept := map[string]bool{}
	for _, seg := range walSegments(t, live) {
		kept[seg] = true
	}
	var truncated []string
	for _, seg := range walSegments(t, before) {
		if !kept[seg] {
			truncated = append(truncated, seg)
		}
	}
	if len(truncated) < 2 {
		t.Fatalf("the flush truncated WAL segments %v; the test wants two or more", truncated)
	}
	return truncated
}

// crashMidTruncate fills crashed with the crash a flush's Truncate meets
// after removing the oldest drop of the truncated segments: the store in
// live after the flush, plus the rest of them from before.
func crashMidTruncate(t *testing.T, live, before, crashed string, truncated []string, drop int) {
	t.Helper()
	copyDir(t, live, crashed)
	for _, seg := range truncated[drop:] {
		copyFile(t, filepath.Join(before, "wal", seg), filepath.Join(crashed, "wal", seg))
	}
}

// TestAppendRollKeepsActiveRows: an append rolls the WAL between a memtable
// swap and the flush of the memtable swapped out. The swap started the
// active memtable at the segment the last roll published, so the flush's
// truncation keeps the segment holding the active memtable's first rows,
// and a crash after it reopens with every row.
func TestAppendRollKeepsActiveRows(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Dir: dir, MemtableSize: 1 << 10, WALSync: wal.SyncNever, DisableAutoFlush: true}
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	value := bytes.Repeat([]byte{'v'}, 200)
	rows := 0
	// putUntilRoll writes rows until an append rolls the log.
	putUntilRoll := func() {
		t.Helper()
		for segs := len(walSegments(t, dir)); len(walSegments(t, dir)) == segs; rows++ {
			if rows > 1000 {
				t.Fatal("no append rolled the WAL")
			}
			if err := s.Put([]byte(fmt.Sprintf("row-%04d", rows)), value); err != nil {
				t.Fatal(err)
			}
		}
	}
	putUntilRoll()
	imm, swapped, err := s.swapMemtable(false)
	if err != nil || !swapped {
		t.Fatalf("swap: %v, swapped %v", err, swapped)
	}
	putUntilRoll() // the active memtable's rows span the roll
	if err := s.flushMemtable(imm); err != nil {
		t.Fatal(err)
	}
	crashStore(t, s)
	re, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for i := 0; i < rows; i++ {
		if _, ok, err := re.Get([]byte(fmt.Sprintf("row-%04d", i))); err != nil || !ok {
			t.Fatalf("row %d of %d after the crash: ok %v, %v", i, rows, ok, err)
		}
	}
}

// TestFirstFlushAfterReopenTruncatesReplayedSegments: a reopened store
// replays its WAL into the active memtable and appends to a new segment.
// The first size-triggered flush puts the replayed rows in a table, so it
// truncates the replayed segment too, long before the append that would
// next roll the log.
func TestFirstFlushAfterReopenTruncatesReplayedSegments(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Dir: dir, MemtableSize: 4 << 10, WALSync: wal.SyncNever}
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	putKeys(t, s, 0, 10)
	crashStore(t, s)
	replayed := walSegments(t, dir)
	if s, err = Open(opts); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	value := bytes.Repeat([]byte{'v'}, 200)
	swapped := func() bool {
		s.mu.RLock()
		defer s.mu.RUnlock()
		return s.imm != nil || s.flushes.Load() > 0
	}
	// Rows up to the first swap: a few KiB, far from the roll mark.
	for i := 0; !swapped(); i++ {
		if i > 1000 {
			t.Fatal("no size-triggered swap")
		}
		if err := s.Put([]byte(fmt.Sprintf("row-%04d", i)), value); err != nil {
			t.Fatal(err)
		}
	}
	for deadline := time.Now().Add(10 * time.Second); s.Stats().Flushes == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the swapped memtable was not flushed")
		}
	}
	s.maintMu.Lock() // the flush has truncated once maintain lets go
	segs := walSegments(t, dir)
	s.maintMu.Unlock()
	for _, seg := range replayed {
		if slices.Contains(segs, seg) {
			t.Fatalf("WAL segments %v after the first flush; replayed segment %s is still there", segs, seg)
		}
	}
	checkKeys(t, s, 10)
}
