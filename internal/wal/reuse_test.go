package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// spareLog returns a log whose segment 1, holding the records old, has been
// retired into the spare, and the spare file's bytes. Segment 2 is active.
func spareLog(t *testing.T, dir string, old [][]byte) (*Log, []byte) {
	t.Helper()
	l := openTest(t, Options{Dir: dir})
	if err := l.Append(old...); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	if err := l.Truncate(2); err != nil {
		t.Fatal(err)
	}
	spare, err := os.ReadFile(filepath.Join(dir, spareName(1)))
	if err != nil {
		t.Fatalf("segment 1 was not kept as the spare: %v", err)
	}
	return l, spare
}

// records returns n records of size bytes each, numbered from 0.
func records(n, size int) [][]byte {
	recs := make([][]byte, n)
	for i := range recs {
		recs[i] = bytes.Repeat([]byte{byte('a' + i)}, size)
	}
	return recs
}

// TestReusedSegmentTornAtEveryByte: a segment reuses the spare's file and a
// crash tears the append of its first record, then of its last, at every
// byte. Whatever the tear, the bytes behind it are the file's earlier life:
// records of the same lengths, the last three of the same bytes too, so a
// tear at a record boundary leaves one of them aligned where the next
// record would start, and only the sequence number its checksum covers
// tells it apart. Replay hands on exactly the records the crash left as
// written, never a stale one.
func TestReusedSegmentTornAtEveryByte(t *testing.T) {
	dir := t.TempDir()
	recs := records(6, 40)
	l, spare := spareLog(t, dir, recs)    // segment 1 held all six
	if _, err := l.Rotate(); err != nil { // segment 3 reuses segment 1's file
		t.Fatal(err)
	}
	if n := counter(l, "wal.segments_recycled"); n != 1 {
		t.Fatalf("wal.segments_recycled = %d, want 1", n)
	}
	fresh := [][]byte{bytes.Repeat([]byte{'z'}, 40), recs[1], recs[2], recs[3]}
	if err := l.Append(fresh...); err != nil {
		t.Fatal(err)
	}
	written, err := os.ReadFile(filepath.Join(dir, segmentName(3)))
	if err != nil {
		t.Fatal(err)
	}
	if len(written) != len(spare) {
		t.Fatalf("segment 3 holds %d bytes, want the spare's %d overwritten in place", len(written), len(spare))
	}
	l.Close()

	frame := headerLen + len(fresh[0])
	var tears []int
	for at := 0; at <= frame; at++ {
		tears = append(tears, at)                      // in the first record
		tears = append(tears, (len(fresh)-1)*frame+at) // in the last
	}
	crash := filepath.Join(t.TempDir(), "crash")
	for _, at := range tears {
		os.RemoveAll(crash)
		if err := os.MkdirAll(crash, 0o755); err != nil {
			t.Fatal(err)
		}
		image := append(append([]byte(nil), written[:at]...), spare[at:]...)
		if err := os.WriteFile(filepath.Join(crash, segmentName(3)), image, 0o644); err != nil {
			t.Fatal(err)
		}
		// The records the tear left whole: a tear inside a body whose bytes
		// the file already held leaves the record as written.
		n := 0
		for n < len(fresh) && bytes.Equal(image[:(n+1)*frame], written[:(n+1)*frame]) {
			n++
		}
		got := replayAll(t, crash)
		want := fresh[:n]
		if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("torn at byte %d: replayed %d records, want the %d it left whole", at, len(got), len(want))
		}
		if info, err := os.Stat(filepath.Join(crash, segmentName(3))); err != nil || info.Size() != int64(len(want)*frame) {
			t.Fatalf("torn at byte %d: segment cut to %v bytes (%v), want %d", at, info.Size(), err, len(want)*frame)
		}
	}
}

// TestCrashAfterSpareRenameLeavesEmptySegment: a crash after Rotate renamed
// the spare into the new segment's name, before any append, leaves a last
// segment holding only the records of its file's earlier life. Replay hands
// none on and cuts the segment to nothing, and the log reopened after it
// replays whole.
func TestCrashAfterSpareRenameLeavesEmptySegment(t *testing.T) {
	dir := t.TempDir()
	l, _ := spareLog(t, dir, records(3, 100))
	if err := l.Append([]byte("kept")); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	crash := filepath.Join(t.TempDir(), "crash")
	for _, seq := range []uint64{2, 3} {
		data, err := os.ReadFile(filepath.Join(dir, segmentName(seq)))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(crash, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(crash, segmentName(seq)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	if got := replayAll(t, crash); len(got) != 1 || string(got[0]) != "kept" {
		t.Fatalf("replay after a crash at the rename = %q, want [kept]", got)
	}
	if info, err := os.Stat(filepath.Join(crash, segmentName(3))); err != nil || info.Size() != 0 {
		t.Fatalf("last segment after replay: %v, want it empty", err)
	}
	re := openTest(t, Options{Dir: crash})
	if err := re.Append([]byte("later")); err != nil {
		t.Fatal(err)
	}
	re.Close()
	if got := replayAll(t, crash); len(got) != 2 || string(got[1]) != "later" {
		t.Fatalf("replay after reopening = %q, want [kept later]", got)
	}
}

// TestRotateCutsReusedSegment: a segment on the spare's file that takes
// fewer bytes than the file held ends at its last record once Rotate ends
// it, so it replays whole as an earlier segment.
func TestRotateCutsReusedSegment(t *testing.T) {
	dir := t.TempDir()
	l, spare := spareLog(t, dir, records(5, 200))
	if _, err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("short")); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("after")); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(filepath.Join(dir, segmentName(3)))
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(headerLen + len("short")); info.Size() != want || int64(len(spare)) <= want {
		t.Fatalf("reused segment 3 holds %d bytes after Rotate, want its %d (the spare held %d)", info.Size(), want, len(spare))
	}
	l.Close()
	if got := replayAll(t, dir); len(got) != 2 || string(got[0]) != "short" || string(got[1]) != "after" {
		t.Fatalf("replay = %q, want [short after]", got)
	}
}

// TestSpareOnlyFromOwnSegments: segments found at Open may hold records
// bound to no segment, which stay valid in any file, so Truncate removes
// them; the first retired segment this Log opened becomes the spare, and
// Close and Open remove it.
func TestSpareOnlyFromOwnSegments(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, segmentName(1)), frameRecord("unbound"), 0o644); err != nil {
		t.Fatal(err)
	}
	l := openTest(t, Options{Dir: dir}) // segment 2
	if _, err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	if err := l.Truncate(3); err != nil {
		t.Fatal(err)
	}
	spares := func() []string {
		m, _ := filepath.Glob(filepath.Join(dir, "*"+spareSuffix))
		for i := range m {
			m[i] = filepath.Base(m[i])
		}
		return m
	}
	if got := spares(); !reflect.DeepEqual(got, []string{spareName(2)}) {
		t.Fatalf("spares after retiring segments 1 and 2: %v, want [%s]", got, spareName(2))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got := spares(); len(got) != 0 {
		t.Fatalf("spares after Close: %v", got)
	}
	if err := os.WriteFile(filepath.Join(dir, spareName(9)), []byte("left by a crash"), 0o644); err != nil {
		t.Fatal(err)
	}
	re := openTest(t, Options{Dir: dir})
	defer re.Close()
	if got := spares(); len(got) != 0 {
		t.Fatalf("spares after Open: %v", got)
	}
}

// TestRecordBoundToItsSegment: a segment's bytes copied under another
// sequence number replay as nothing when the segment is the last, and as
// ErrCorrupt when it is not.
func TestRecordBoundToItsSegment(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, Options{Dir: dir})
	if err := l.Append([]byte("one"), []byte("two")); err != nil {
		t.Fatal(err)
	}
	l.Close()
	data, err := os.ReadFile(filepath.Join(dir, segmentName(1)))
	if err != nil {
		t.Fatal(err)
	}
	moved := t.TempDir()
	for _, seq := range []uint64{2, 3} {
		if err := os.WriteFile(filepath.Join(moved, segmentName(seq)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	err = Replay(moved, nil, func(rec []byte) error { return fmt.Errorf("replayed %q", rec) })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("replay of records moved to other segments: %v, want ErrCorrupt", err)
	}
}
