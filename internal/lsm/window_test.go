package lsm

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"tpcxiot/internal/kvp"
	"tpcxiot/internal/sstable"
	"tpcxiot/internal/wal"
)

// sensorKey encodes a benchmark-shaped key for sensor sen at ts unix ms.
func sensorKey(sen string, ts int64) []byte {
	return kvp.Key{Substation: "sub01", Sensor: sen, Timestamp: ts}.Encode()
}

// flushBatch writes one table holding n readings of sensor sen with
// timestamps ts, ts+1, ...
func flushBatch(t *testing.T, s *Store, sen string, ts int64, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := s.Put(sensorKey(sen, ts+int64(i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
}

// TestColdWindowsSettleToOneTable: after CompactPending, every cold window
// holds exactly one table, the hot window is untouched (below its tier
// trigger), the debt gauge reads zero, and a second settle is a no-op.
func TestColdWindowsSettleToOneTable(t *testing.T) {
	s, err := Open(Options{
		Dir:              t.TempDir(),
		WALSync:          wal.SyncNever,
		DisableAutoFlush: true,
		WindowDuration:   time.Second,
		CompactTrigger:   50, // keep the hot window from tier-merging
		MaxStoreFiles:    50,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Two flushes in each of windows 0 and 1 (cold once window 2 exists),
	// one flush in window 2 (hot).
	flushBatch(t, s, "a", 0, 10)
	flushBatch(t, s, "b", 500, 10)
	flushBatch(t, s, "a", 1000, 10)
	flushBatch(t, s, "b", 1500, 10)
	flushBatch(t, s, "a", 2000, 10)
	// (The background compactor may already be settling the cold windows —
	// CompactPending drains whatever is left and returns when nothing is.)
	if err := s.CompactPending(); err != nil {
		t.Fatal(err)
	}
	tiers := s.TierStats()
	if len(tiers) != 3 {
		t.Fatalf("TierStats = %+v, want 3 windows", tiers)
	}
	if !tiers[0].Hot || tiers[0].Window != 2 || tiers[0].Tables != 1 {
		t.Fatalf("hot tier = %+v, want window 2 with 1 table", tiers[0])
	}
	for _, tr := range tiers[1:] {
		if tr.Hot || tr.Tables != 1 {
			t.Fatalf("cold tier %+v did not settle to one table", tr)
		}
	}
	if debt := s.Stats().CompactionDebtBytes; debt != 0 {
		t.Fatalf("settled store owes %d bytes of debt", debt)
	}

	// Settling again must not rewrite anything.
	before := s.Stats().Compactions
	if err := s.CompactPending(); err != nil {
		t.Fatal(err)
	}
	if after := s.Stats().Compactions; after != before {
		t.Fatalf("CompactPending on a settled store ran %d compactions", after-before)
	}

	// Nothing lost: 50 readings across the five batches.
	count := 0
	if err := scan(s, nil, nil, func(k, v []byte) error { count++; return nil }); err != nil {
		t.Fatal(err)
	}
	if count != 50 {
		t.Fatalf("scan found %d readings, want 50", count)
	}
}

// TestHotWindowTierMerge: similar-sized tables inside the hot window merge
// once CompactTrigger of them accumulate.
func TestHotWindowTierMerge(t *testing.T) {
	s, err := Open(Options{
		Dir:              t.TempDir(),
		WALSync:          wal.SyncNever,
		DisableAutoFlush: true,
		WindowDuration:   time.Hour,
		CompactTrigger:   3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 3; i++ {
		flushBatch(t, s, fmt.Sprintf("s%d", i), int64(1000+i), 10)
	}
	if err := s.CompactPending(); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Tables; got != 1 {
		t.Fatalf("TableCount after hot-tier merge = %d, want 1", got)
	}
	count := 0
	if err := scan(s, nil, nil, func(k, v []byte) error { count++; return nil }); err != nil {
		t.Fatal(err)
	}
	if count != 30 {
		t.Fatalf("scan found %d readings, want 30", count)
	}
}

// TestWindowedCompactionLeavesSettledWindowsAlone: once a cold window has
// settled to one table, further ingest and settling in newer windows must
// never rewrite it — its table file id stays put.
func TestWindowedCompactionLeavesSettledWindowsAlone(t *testing.T) {
	s, err := Open(Options{
		Dir:              t.TempDir(),
		WALSync:          wal.SyncNever,
		DisableAutoFlush: true,
		WindowDuration:   time.Second,
		CompactTrigger:   50,
		MaxStoreFiles:    50,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	flushBatch(t, s, "a", 0, 10)
	flushBatch(t, s, "b", 500, 10)
	flushBatch(t, s, "a", 1000, 10) // window 1 makes window 0 cold
	if err := s.CompactPending(); err != nil {
		t.Fatal(err)
	}
	var settledID uint64
	for _, ts := range s.TableStats() {
		if ts.Window == 0 {
			settledID = ts.ID
		}
	}
	if settledID == 0 {
		t.Fatal("window 0 has no settled table")
	}

	// Keep ingesting across newer windows, settling as we go.
	for w := int64(2); w < 6; w++ {
		flushBatch(t, s, "a", w*1000, 10)
		flushBatch(t, s, "b", w*1000+500, 10)
		if err := s.CompactPending(); err != nil {
			t.Fatal(err)
		}
	}
	for _, ts := range s.TableStats() {
		if ts.Window == 0 && ts.ID != settledID {
			t.Fatalf("settled window 0 was rewritten: table id %d, want %d", ts.ID, settledID)
		}
	}
}

// TestTimeRangeScanMatchesFilteredScan is the pruning correctness property:
// for any time range, the time-filtered iterator the aggregate fold reads
// must yield exactly the entries a full scan yields after per-entry
// timestamp filtering — file pruning can never change results, only skip
// I/O.
func TestTimeRangeScanMatchesFilteredScan(t *testing.T) {
	s, err := Open(Options{
		Dir:              t.TempDir(),
		WALSync:          wal.SyncNever,
		DisableAutoFlush: true,
		WindowDuration:   time.Second,
		CompactTrigger:   50,
		MaxStoreFiles:    50,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Readings spread over [0, 8s) across two sensors, flushed into many
	// tables with distinct time ranges; plus timestamp-free keys and
	// overwrites to exercise every merge case.
	rng := rand.New(rand.NewSource(7))
	for batch := 0; batch < 8; batch++ {
		base := int64(batch * 1000)
		for i := 0; i < 40; i++ {
			sen := fmt.Sprintf("s%d", i%2)
			ts := base + rng.Int63n(1000)
			if err := s.Put(sensorKey(sen, ts), []byte(fmt.Sprintf("b%d-%d", batch, i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Put([]byte(fmt.Sprintf("plain-%02d", batch)), []byte("x")); err != nil {
			t.Fatal(err)
		}
		if batch%3 == 2 { // overwrite something in an earlier window
			if err := s.Put(sensorKey("s0", int64((batch-2)*1000)+1), []byte(fmt.Sprintf("over-%d", batch))); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}

	type entry struct{ k, v string }
	ranges := [][2]int64{{0, 8000}, {0, 1000}, {3000, 5000}, {7500, 8000}, {2500, 2501}, {9000, 9999}}
	for i := 0; i < 20; i++ {
		lo := rng.Int63n(9000)
		ranges = append(ranges, [2]int64{lo, lo + rng.Int63n(4000)})
	}
	for _, r := range ranges {
		tsLo, tsHi := r[0], r[1]
		var want []entry
		err := scan(s, nil, nil, func(k, v []byte) error {
			if ts, ok := kvp.TimestampOf(k); ok && ts >= tsLo && ts < tsHi {
				want = append(want, entry{string(k), string(v)})
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		var got []entry
		it, err := s.newIter(nil, nil, tsLo, tsHi, true, false)
		if err != nil {
			t.Fatal(err)
		}
		for ; it.Valid(); it.Next() {
			got = append(got, entry{string(it.Key()), string(it.Value())})
		}
		if err := it.Error(); err != nil {
			t.Fatal(err)
		}
		it.Close()
		if len(got) != len(want) {
			t.Fatalf("range [%d,%d): time-filtered iterator yielded %d entries, filtered scan %d", tsLo, tsHi, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("range [%d,%d) entry %d: got %+v, want %+v", tsLo, tsHi, i, got[i], want[i])
			}
		}
	}

	// A narrow range over old data must have pruned table files.
	if skips := s.Stats().PruneTimeSkips; skips == 0 {
		t.Fatal("no table files were time-pruned across disjoint-range scans")
	}
}

// TestTimeRangePruningSurvivesCrash: the time bounds driving pruning come
// from the manifest/footers after recovery, so the property must hold on a
// reopened store too.
func TestTimeRangePruningSurvivesCrash(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{
		Dir:              dir,
		WALSync:          wal.SyncNever,
		DisableAutoFlush: true,
		WindowDuration:   time.Second,
		CompactTrigger:   50,
		MaxStoreFiles:    50,
	})
	if err != nil {
		t.Fatal(err)
	}
	flushBatch(t, s, "a", 0, 20)
	flushBatch(t, s, "a", 5000, 20)
	crashStore(t, s)

	re, err := Open(Options{Dir: dir, WALSync: wal.SyncNever, WindowDuration: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	it, err := re.newIter(nil, nil, 5000, 6000, true, false)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for ; it.Valid(); it.Next() {
		count++
	}
	if err := it.Error(); err != nil {
		t.Fatal(err)
	}
	it.Close()
	if count != 20 {
		t.Fatalf("time-range iterator after recovery found %d readings, want 20", count)
	}
	if skips := re.Stats().PruneTimeSkips; skips == 0 {
		t.Fatal("recovered table bounds did not prune the disjoint file")
	}
}

// TestStoreCompressionLedger: with flate enabled the flush path compresses
// data blocks, the raw/stored ledger fills in, and the data reads back — also
// through a reopen with compression off (per-table self-description).
func TestStoreCompressionLedger(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{
		Dir:              dir,
		WALSync:          wal.SyncNever,
		DisableAutoFlush: true,
		Compression:      sstable.FlateCompression,
	})
	if err != nil {
		t.Fatal(err)
	}
	pad := strings.Repeat("23.5C ", 50)
	for i := 0; i < 200; i++ {
		if err := s.Put([]byte(fmt.Sprintf("k%04d", i)), []byte(pad)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.CompressRawBytes == 0 || st.CompressStoredBytes == 0 {
		t.Fatalf("empty compression ledger: %+v", st)
	}
	if st.CompressStoredBytes >= st.CompressRawBytes {
		t.Fatalf("compressible flush did not shrink: raw=%d stored=%d", st.CompressRawBytes, st.CompressStoredBytes)
	}
	if r := st.CompressionRatio(); r <= 0 || r >= 1 {
		t.Fatalf("CompressionRatio = %v, want in (0,1)", r)
	}
	if got := s.TableStats()[0].Compression; got != "flate" {
		t.Fatalf("table compression = %q, want flate", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(Options{Dir: dir, WALSync: wal.SyncNever}) // compression off
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for i := 0; i < 200; i++ {
		v, ok, err := re.Get([]byte(fmt.Sprintf("k%04d", i)))
		if err != nil || !ok || string(v) != pad {
			t.Fatalf("Get(k%04d) after reopen: ok=%v err=%v", i, ok, err)
		}
	}
}
