package wal

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"
)

func openTest(t *testing.T, opts Options) *Log {
	t.Helper()
	if opts.Dir == "" {
		opts.Dir = t.TempDir()
	}
	if opts.Sync == SyncOnAppend {
		opts.Sync = SyncNever // keep tests fast; durability tested explicitly
	}
	l, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func replayAll(t *testing.T, dir string) [][]byte {
	t.Helper()
	var recs [][]byte
	if err := Replay(dir, nil, func(rec []byte) error {
		recs = append(recs, append([]byte(nil), rec...))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return recs
}

func TestAppendReplay(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, Options{Dir: dir})
	want := [][]byte{[]byte("one"), []byte("two"), []byte("three")}
	for _, r := range want {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got := replayAll(t, dir)
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if string(got[i]) != string(want[i]) {
			t.Fatalf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestAppendGroup(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, Options{Dir: dir})
	if err := l.Append([]byte("a"), []byte("b"), []byte("c")); err != nil {
		t.Fatal(err)
	}
	l.Close()
	if got := replayAll(t, dir); len(got) != 3 {
		t.Fatalf("group append replayed %d records, want 3", len(got))
	}
}

// TestEmptyRecordRefused: replay reads a zero length as a zero-filled torn
// tail, so Append refuses an empty record, and with it the whole group.
func TestEmptyRecordRefused(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, Options{Dir: dir})
	if err := l.Append([]byte("a"), []byte{}); err == nil {
		t.Fatal("empty record appended")
	}
	l.Close()
	if got := replayAll(t, dir); len(got) != 0 {
		t.Fatalf("a refused group left %q in the log", got)
	}
}

// rotateEvery appends n records of size bytes, rotating after every third.
func rotateEvery(t *testing.T, l *Log, n, size int) {
	t.Helper()
	rec := make([]byte, size)
	for i := 0; i < n; i++ {
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
		if i%3 == 2 {
			if _, err := l.Rotate(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestRotation(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, Options{Dir: dir})
	first := l.seq
	rotateEvery(t, l, 10, 300)
	if len(l.segments) != 4 || l.seq != first+3 {
		t.Fatalf("three rotations left segments %v, active %d", l.segments, l.seq)
	}
	l.Close()
	if got := replayAll(t, dir); len(got) != 10 {
		t.Fatalf("replayed %d records across segments, want 10", len(got))
	}
}

func TestTruncateRemovesFiles(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, Options{Dir: dir})
	rotateEvery(t, l, 8, 500)
	if err := l.Append([]byte("kept")); err != nil {
		t.Fatal(err)
	}
	before := append([]uint64(nil), l.segments...)
	if err := l.Truncate(before[1]); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(l.segments, before[1:]) {
		t.Fatalf("truncate below %d left %v of %v", before[1], l.segments, before)
	}
	active, err := l.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Truncate(active); err != nil {
		t.Fatal(err)
	}
	// The retired segments' names are gone, and at most one spare is left.
	for _, seq := range before[:len(before)-1] {
		if _, err := os.Stat(filepath.Join(dir, segmentName(seq))); !os.IsNotExist(err) {
			t.Fatalf("retired segment %d is still there (%v)", seq, err)
		}
	}
	if spares, _ := filepath.Glob(filepath.Join(dir, "wal-*.spare")); len(spares) > 1 {
		t.Fatalf("spares after truncating: %v, want at most one", spares)
	}
	// Only the segment Rotate started is left: the log holds no record.
	l.Close()
	if files, _ := filepath.Glob(filepath.Join(dir, "wal-*.log")); len(files) != 1 {
		t.Fatalf("segment files after truncating below the active one: %v", files)
	}
	if got := replayAll(t, dir); len(got) != 0 {
		t.Fatalf("replayed %d records after truncating every full segment", len(got))
	}
}

// TestTruncateKeepsActiveSegment: the segment taking appends is never
// removed, whatever the bound.
func TestTruncateKeepsActiveSegment(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, Options{Dir: dir})
	rotateEvery(t, l, 3, 10)
	if err := l.Append([]byte("active")); err != nil {
		t.Fatal(err)
	}
	if err := l.Truncate(math.MaxUint64); err != nil {
		t.Fatal(err)
	}
	l.Close()
	if got := replayAll(t, dir); len(got) != 1 || string(got[0]) != "active" {
		t.Fatalf("replay after truncating past the active segment = %q", got)
	}
}

func TestReopenContinues(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, Options{Dir: dir})
	l.Append([]byte("first"))
	l.Close()

	l2 := openTest(t, Options{Dir: dir})
	l2.Append([]byte("second"))
	l2.Close()

	got := replayAll(t, dir)
	if len(got) != 2 || string(got[0]) != "first" || string(got[1]) != "second" {
		t.Fatalf("replay after reopen: %q", got)
	}
}

func TestTornTailTolerated(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, Options{Dir: dir})
	l.Append([]byte("intact"))
	l.Append([]byte("to-be-torn"))
	l.Close()

	// Chop the final record mid-body to simulate a torn write.
	seg := filepath.Join(dir, segmentName(1))
	info, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, info.Size()-4); err != nil {
		t.Fatal(err)
	}

	got := replayAll(t, dir)
	if len(got) != 1 || string(got[0]) != "intact" {
		t.Fatalf("torn-tail replay = %q, want just [intact]", got)
	}
}

func TestMidSegmentCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, Options{Dir: dir})
	rotateEvery(t, l, 6, 400) // spans multiple segments
	l.Close()

	// Flip a byte in the body of the first record of the FIRST segment
	// (not the last): replay must fail loudly.
	seg := filepath.Join(dir, segmentName(1))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[10] ^= 0xff
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	err = Replay(dir, nil, func([]byte) error { return nil })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("replay error = %v, want ErrCorrupt", err)
	}
}

func TestCorruptTailOfLastSegmentTolerated(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, Options{Dir: dir})
	l.Append([]byte("good"))
	l.Append([]byte("bad-tail"))
	l.Close()

	seg := filepath.Join(dir, segmentName(1))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	os.WriteFile(seg, data, 0o644)

	got := replayAll(t, dir)
	if len(got) != 1 || string(got[0]) != "good" {
		t.Fatalf("corrupt-tail replay = %q", got)
	}
}

func TestReplayCallbackError(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, Options{Dir: dir})
	l.Append([]byte("x"))
	l.Close()
	sentinel := errors.New("stop")
	if err := Replay(dir, nil, func([]byte) error { return sentinel }); !errors.Is(err, sentinel) {
		t.Fatalf("callback error not propagated: %v", err)
	}
}

func TestReplayMissingDir(t *testing.T) {
	if err := Replay(filepath.Join(t.TempDir(), "absent"), nil, func([]byte) error { return nil }); err != nil {
		t.Fatalf("replay of missing dir: %v", err)
	}
}

func TestClosedLogRejectsOps(t *testing.T) {
	l := openTest(t, Options{})
	l.Close()
	if err := l.Append([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Append after close: %v", err)
	}
	if _, err := l.Rotate(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Rotate after close: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestOversizeRecordRejected(t *testing.T) {
	l := openTest(t, Options{})
	defer l.Close()
	if err := l.Append(make([]byte, MaxRecordSize+1)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversize append: %v", err)
	}
}

func TestBadOptions(t *testing.T) {
	if _, err := Open(Options{}); !errors.Is(err, ErrBadOption) {
		t.Fatalf("missing dir: %v", err)
	}
}

func TestConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, Options{Dir: dir})
	const workers = 8
	const per = 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := l.Append([]byte(fmt.Sprintf("w%d-%d", w, i))); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	l.Close()
	if got := replayAll(t, dir); len(got) != workers*per {
		t.Fatalf("replayed %d records, want %d", len(got), workers*per)
	}
}

func TestSyncOnAppendDurable(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, Sync: SyncOnAppend})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("durable")); err != nil {
		t.Fatal(err)
	}
	// Without closing, the record must already be on disk.
	got := replayAll(t, dir)
	if len(got) != 1 || string(got[0]) != "durable" {
		t.Fatalf("record not durable before close: %q", got)
	}
	l.Close()
}

func BenchmarkAppend1KiB(b *testing.B) {
	dir := b.TempDir()
	l, err := Open(Options{Dir: dir, Sync: SyncNever})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	rec := make([]byte, 1024)
	b.SetBytes(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := l.Append(rec); err != nil {
			b.Fatal(err)
		}
	}
}

func TestGroupCommitSharesSyncs(t *testing.T) {
	// Deterministic leader/follower scenario: hold syncMu as a fake
	// in-flight leader, let followers append and queue behind it, cover
	// their offsets, then release — every follower must return without an
	// fsync of its own. (A purely concurrent version is timing-dependent:
	// on fast filesystems fsync completes before a cohort can form.)
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, Sync: SyncOnAppend})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	l.syncMu.Lock() // fake in-flight leader
	const followers = 3
	done := make(chan error, followers)
	for i := 0; i < followers; i++ {
		go func(i int) {
			done <- l.Append([]byte(fmt.Sprintf("follower-%d", i)))
		}(i)
	}
	// Wait until every follower has written its record and is blocked on
	// the sync.
	for {
		l.mu.Lock()
		appended := l.appended
		l.mu.Unlock()
		if appended >= int64(followers)*(headerLen+int64(len("follower-0"))) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	// The "leader" makes everything durable and publishes the offset.
	l.mu.Lock()
	if err := l.f.Sync(); err != nil {
		t.Fatal(err)
	}
	l.synced.Store(l.appended)
	l.mu.Unlock()
	l.syncMu.Unlock()

	for i := 0; i < followers; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	shared := counter(l, "wal.group_commit_shared")
	if shared != followers {
		t.Fatalf("shared = %d, want %d (all followers covered by the leader)", shared, followers)
	}
	// Durability: everything replays.
	l.Close()
	count := 0
	if err := Replay(dir, nil, func([]byte) error { count++; return nil }); err != nil {
		t.Fatal(err)
	}
	if count != followers {
		t.Fatalf("replayed %d of %d records", count, followers)
	}
}

// counter reads the log's counter reported under name.
func counter(l *Log, name string) int64 {
	for _, n := range l.Counters() {
		if n.Name == name {
			return n.C.Load()
		}
	}
	return -1
}

func TestGroupCommitSingleWriterSyncsEachAppend(t *testing.T) {
	l, err := Open(Options{Dir: t.TempDir(), Sync: SyncOnAppend})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 20; i++ {
		if err := l.Append([]byte("solo")); err != nil {
			t.Fatal(err)
		}
	}
	syncs, shared := counter(l, "wal.group_commit_syncs"), counter(l, "wal.group_commit_shared")
	if shared != 0 {
		t.Fatalf("solo writer shared %d syncs", shared)
	}
	if syncs != 20 {
		t.Fatalf("solo writer performed %d syncs for 20 appends", syncs)
	}
}

// TestGroupCommitAcrossRotation: a goroutine of its own rotates while
// appenders run, so group-commit leaders and followers meet Rotate at every
// point of their sync.
func TestGroupCommitAcrossRotation(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, Sync: SyncOnAppend})
	if err != nil {
		t.Fatal(err)
	}
	rec := make([]byte, 300)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				if err := l.Append(rec); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	rotations := 0
	for running := true; running; rotations++ {
		select {
		case <-done:
			running = false
		default:
		}
		if _, err := l.Rotate(); err != nil {
			t.Fatal(err)
		}
	}
	if len(l.segments) != rotations+1 {
		t.Fatalf("%d rotations left %d segments", rotations, len(l.segments))
	}
	l.Close()
	count := 0
	if err := Replay(dir, nil, func([]byte) error { count++; return nil }); err != nil {
		t.Fatal(err)
	}
	if count != 120 {
		t.Fatalf("replayed %d of 120 records across rotations", count)
	}
}

// BenchmarkGroupCommit measures durable append throughput as concurrency
// grows: group commit should lift aggregate throughput well above a single
// writer's fsync-bound rate.
func BenchmarkGroupCommit(b *testing.B) {
	for _, writers := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("writers=%d", writers), func(b *testing.B) {
			l, err := Open(Options{Dir: b.TempDir(), Sync: SyncOnAppend})
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			rec := make([]byte, 1024)
			b.SetBytes(1024)
			b.SetParallelism(writers)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if err := l.Append(rec); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

func TestSyncDirMissingDirectory(t *testing.T) {
	if err := SyncDir(filepath.Join(t.TempDir(), "absent")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("SyncDir of a missing directory = %v, want ErrNotExist", err)
	}
	if err := SyncDir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
}

// TestFramesBufferFitsLargestGroup: appends lay a group out in a slice the
// log keeps, as long as the largest group and no longer. A log of
// manifest-sized records holds a few KiB, not a write buffer sized for the
// data log, and a rotation allocates none.
func TestFramesBufferFitsLargestGroup(t *testing.T) {
	l := openTest(t, Options{})
	defer l.Close()
	for _, n := range []int{300, 1200, 700} {
		if err := l.Append(make([]byte, n)); err != nil {
			t.Fatal(err)
		}
		if _, err := l.Rotate(); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := cap(l.frames), headerLen+1200; got != want {
		t.Fatalf("frames buffer holds %d bytes, want %d (the largest group)", got, want)
	}
	if cap(l.frames) >= 4<<10 {
		t.Fatalf("frames buffer of a manifest-sized log is %d bytes", cap(l.frames))
	}
}
