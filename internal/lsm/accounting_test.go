package lsm

import (
	"bytes"
	"fmt"
	"testing"

	"tpcxiot/internal/telemetry"
)

// TestAmplificationInvariants checks the byte ledger's structural
// invariants over repeated equal-size ingest + flush + forced-compaction
// rounds: physical write traffic can never undercut the logical bytes it
// carries, and write amplification only grows as compaction re-rewrites an
// ever-larger store.
func TestAmplificationInvariants(t *testing.T) {
	s := openTest(t, Options{DisableAutoFlush: true})
	value := bytes.Repeat([]byte("v"), 1024)
	const rows = 64

	var prevAmp float64
	for round := 0; round < 3; round++ {
		for i := 0; i < rows; i++ {
			key := fmt.Sprintf("r%d-%04d", round, i)
			if err := s.Put([]byte(key), value); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := s.Compact(); err != nil {
			t.Fatal(err)
		}

		st := s.Stats()
		if st.LogicalBytes == 0 {
			t.Fatal("no logical bytes accounted")
		}
		// Every logical byte crosses the WAL with framing on top, and is
		// flushed into a table with encoding overhead on top.
		if st.WALBytes < st.LogicalBytes {
			t.Errorf("round %d: WAL bytes %d < logical bytes %d", round, st.WALBytes, st.LogicalBytes)
		}
		if st.FlushBytes < st.LogicalBytes {
			t.Errorf("round %d: flush bytes %d < logical bytes %d", round, st.FlushBytes, st.LogicalBytes)
		}
		amp := st.WriteAmplification()
		if amp < 2 {
			t.Errorf("round %d: write amp %.3f < 2 (WAL + flush alone double every byte)", round, amp)
		}
		if amp < prevAmp {
			t.Errorf("round %d: write amp %.3f decreased from %.3f — compaction rewrites must only add", round, amp, prevAmp)
		}
		prevAmp = amp
	}

	st := s.Stats()
	wantLogical := int64(3 * rows * (len("r0-0000") + len(value)))
	if st.LogicalBytes != wantLogical {
		t.Errorf("logical bytes = %d, want %d", st.LogicalBytes, wantLogical)
	}
	// The forced compactions merged multi-table states, so both sides of
	// the compaction ledger must have moved.
	if st.CompactReadBytes == 0 || st.CompactWriteBytes == 0 {
		t.Errorf("compaction ledger empty: read=%d write=%d", st.CompactReadBytes, st.CompactWriteBytes)
	}
	// Everything was folded into one table: debt is zero by definition.
	if st.Tables != 1 {
		t.Fatalf("tables = %d, want 1 after full compaction", st.Tables)
	}
	if st.CompactionDebtBytes != 0 {
		t.Errorf("compaction debt = %d with a single table, want 0", st.CompactionDebtBytes)
	}
}

// TestReadLedgerAndBloom checks the read-side counters: point reads of
// present keys count logical read bytes and Bloom hits, absent keys are
// skipped by the filter without touching the table.
func TestReadLedgerAndBloom(t *testing.T) {
	s := openTest(t, Options{DisableAutoFlush: true})
	value := bytes.Repeat([]byte("v"), 128)
	const rows = 32
	for i := 0; i < rows; i++ {
		if err := s.Put([]byte(fmt.Sprintf("k%04d", i)), value); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < rows; i++ {
		v, ok, err := s.Get([]byte(fmt.Sprintf("k%04d", i)))
		if err != nil || !ok || len(v) != len(value) {
			t.Fatalf("get k%04d: ok=%v err=%v", i, ok, err)
		}
	}
	// Absent keys sorting below the table's key range never reach the
	// filter: the footer bounds prune the table with zero I/O.
	for i := 0; i < rows; i++ {
		if _, ok, err := s.Get([]byte(fmt.Sprintf("absent%04d", i))); err != nil || ok {
			t.Fatalf("absent get: ok=%v err=%v", ok, err)
		}
	}
	// Absent keys inside the key range do consult the filter. "_" sorts
	// after the digits, so k0000_ .. k0030_ all fall strictly between the
	// table's first and last keys.
	const inRange = rows - 1
	for i := 0; i < inRange; i++ {
		if _, ok, err := s.Get([]byte(fmt.Sprintf("k%04d_", i))); err != nil || ok {
			t.Fatalf("in-range absent get: ok=%v err=%v", ok, err)
		}
	}

	st := s.Stats()
	wantRead := int64(rows * (len("k0000") + len(value)))
	if st.LogicalReadBytes != wantRead {
		t.Errorf("logical read bytes = %d, want %d", st.LogicalReadBytes, wantRead)
	}
	if st.BloomHits != rows {
		t.Errorf("bloom hits = %d, want %d", st.BloomHits, rows)
	}
	// Every out-of-range probe was answered by key-range pruning alone.
	if st.PruneKeySkips != rows {
		t.Errorf("prune key skips = %d, want %d", st.PruneKeySkips, rows)
	}
	// The filter may false-positive occasionally, but most in-range absent
	// probes must be skipped without a table read.
	if st.BloomSkips+st.BloomFalsePositives != inRange {
		t.Errorf("bloom skips+fp = %d, want %d", st.BloomSkips+st.BloomFalsePositives, inRange)
	}
	if st.BloomSkips == 0 {
		t.Error("no bloom skips: absent keys should miss the filter")
	}
	if fp := st.BloomFalsePositiveRate(); fp < 0 || fp > 0.5 {
		t.Errorf("bloom FP rate = %.3f, want a small fraction", fp)
	}
}

// TestTableStatsIntrospection checks the /storage building block: per-table
// key ranges and entry counts.
func TestTableStatsIntrospection(t *testing.T) {
	s := openTest(t, Options{DisableAutoFlush: true})
	const rows = 16
	for i := 0; i < rows; i++ {
		if err := s.Put([]byte(fmt.Sprintf("k%04d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	const extra = 3
	for i := 0; i < extra; i++ {
		if err := s.Put([]byte(fmt.Sprintf("x%04d", i)), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}

	ts := s.TableStats()
	if len(ts) != 1 {
		t.Fatalf("tables = %d, want 1", len(ts))
	}
	tab := ts[0]
	if tab.Entries != rows+extra {
		t.Errorf("entries = %d, want %d", tab.Entries, rows+extra)
	}
	if tab.FirstKey != "k0000" || tab.LastKey != fmt.Sprintf("x%04d", extra-1) {
		t.Errorf("key range = [%q, %q]", tab.FirstKey, tab.LastKey)
	}
	if tab.SizeBytes <= 0 {
		t.Errorf("size = %d, want > 0", tab.SizeBytes)
	}
	if !tab.HasBloom {
		t.Error("table should carry a Bloom filter by default")
	}
	if tab.AgeSeconds < 0 {
		t.Errorf("age = %f, want >= 0", tab.AgeSeconds)
	}
}

// TestHealthDocument checks the /healthz building block across the store
// lifecycle.
func TestHealthDocument(t *testing.T) {
	s := openTest(t, Options{DisableAutoFlush: true})
	h := s.Health()
	if !h.OK() || h.Stalled || h.Closed {
		t.Errorf("fresh store unhealthy: %+v", h)
	}
	if err := s.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if h := s.Health(); h.MemtableBytes == 0 {
		t.Error("memtable bytes not reflected in health")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if h := s.Health(); h.OK() || !h.Closed {
		t.Errorf("closed store reported healthy: %+v", h)
	}
}

// TestManifestCommitsLeaveWALMetrics: the manifest is a wal.Log too, but
// its appends and syncs are not the data WAL's. A Flush and a Compact each
// commit a manifest edit and must move none of wal.appends, wal.bytes,
// wal.syncs, the put.wal_append histogram or Stats().WALBytes — the bench
// derives wal.fsyncs_per_batch, wal.bytes_per_user_byte and write_amp
// from them.
func TestManifestCommitsLeaveWALMetrics(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := openTest(t, Options{DisableAutoFlush: true, Registry: reg})
	read := func() [5]int64 {
		return [5]int64{
			reg.CounterValue("wal.appends"),
			reg.CounterValue("wal.bytes"),
			reg.CounterValue("wal.syncs"),
			reg.Histogram("put.wal_append").Snapshot().Count(),
			s.Stats().WALBytes,
		}
	}
	for round := 0; round < 2; round++ {
		if err := s.Put([]byte(fmt.Sprintf("k%d", round)), []byte("v")); err != nil {
			t.Fatal(err)
		}
		before := read()
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		if after := read(); after != before {
			t.Fatalf("Flush moved the data WAL's metrics [appends bytes syncs put.wal_append WALBytes]: %v -> %v", before, after)
		}
	}
	if before := read(); before[0] != 2 {
		t.Fatalf("wal.appends = %d after two puts, want 2", before[0])
	}
	before := read()
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Compactions; got != 1 {
		t.Fatalf("%d compactions, want 1", got)
	}
	if after := read(); after != before {
		t.Fatalf("Compact moved the data WAL's metrics [appends bytes syncs put.wal_append WALBytes]: %v -> %v", before, after)
	}
}
