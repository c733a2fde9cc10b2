package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// frameRecord frames rec as a record bound to no segment, the only kind
// logs written before segment reuse hold.
func frameRecord(rec string) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(len(rec)))
	b = binary.LittleEndian.AppendUint32(b, crc32.Checksum([]byte(rec), crcTable))
	return append(b, rec...)
}

// frameBound frames rec the way Append writes it into segment seq: the
// length word's top bit set, the CRC over seq's 8 little-endian bytes and
// then the record.
func frameBound(rec string, seq uint64) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(len(rec))|1<<31)
	sum := append(binary.LittleEndian.AppendUint64(nil, seq), rec...)
	b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(sum, crcTable))
	return append(b, rec...)
}

// replaySeq is the sequence number the fuzz target replays its bytes as.
const replaySeq = 1

// leadingRecords models replay of data as segment seq: the records of data
// in order up to the first that is not intact, and whether every byte of
// data was an intact record. The first record's kind, bound or not, is the
// segment's.
func leadingRecords(data []byte, seq uint64) (recs [][]byte, whole bool) {
	kind := uint32(0)
	for len(data) > 0 {
		if len(data) < headerLen {
			return recs, false
		}
		word := binary.LittleEndian.Uint32(data)
		if len(recs) == 0 {
			kind = word >> 31
		}
		n := uint64(word & (1<<31 - 1))
		if n == 0 || n > MaxRecordSize || n > uint64(len(data)-headerLen) || word>>31 != kind {
			return recs, false
		}
		rec := data[headerLen : headerLen+n]
		sum := rec
		if kind == 1 {
			sum = append(binary.LittleEndian.AppendUint64(nil, seq), rec...)
		}
		if crc32.Checksum(sum, crcTable) != binary.LittleEndian.Uint32(data[4:]) {
			return recs, false
		}
		recs = append(recs, rec)
		data = data[headerLen+n:]
	}
	return recs, true
}

// replayBytes replays data as one segment, the last or an earlier one, and
// checks the outcome against leadingRecords: fn is handed exactly the
// leading intact records; the last segment replays without error; an
// earlier one returns nil when every byte is an intact record and
// ErrCorrupt otherwise. It returns the records replayed.
func replayBytes(t *testing.T, data []byte, last bool) [][]byte {
	t.Helper()
	var got [][]byte
	err := replaySegment(bytes.NewReader(data), int64(len(data)), replaySeq, last, nil, func(rec []byte) error {
		got = append(got, rec)
		return nil
	})
	want, whole := leadingRecords(data, replaySeq)
	if last || whole {
		if err != nil {
			t.Fatalf("replay (last %v) of %d bytes: %v", last, len(data), err)
		}
	} else if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("replay of a damaged earlier segment: %v, want ErrCorrupt", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replay (last %v) handed %q, want the leading intact records %q", last, got, want)
	}
	return got
}

// replaySeed is one of FuzzWALReplay's seeds: a segment's bytes and the
// records replay hands on from it.
type replaySeed struct {
	name    string
	data    []byte
	records int
}

func replaySeeds() []replaySeed {
	valid := append(frameRecord("one"), frameRecord("two")...)
	tail := func(b []byte) []byte { return append(append([]byte(nil), valid...), b...) }
	crc := tail(nil)
	crc[len(crc)-1] ^= 0xff
	bound := append(frameBound("one", replaySeq), frameBound("two", replaySeq)...)
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	return []replaySeed{
		{"valid", valid, 2},
		{"zero-tail", tail(make([]byte, 4096)), 2},
		{"ff-header", tail(bytes.Repeat([]byte{0xff}, 8)), 2},
		{"torn-header", tail([]byte{3, 0, 0}), 2},
		{"torn-body", tail(frameRecord("three")[:headerLen+2]), 2},
		{"crc-mismatch", crc, 1},
		{"bound", bound, 2},
		// A reused file: its own record, then its earlier life's.
		{"bound-other-seq", cat(frameBound("new", replaySeq), frameBound("stale", replaySeq+6)), 1},
		{"bound-other-seq-first", frameBound("stale", replaySeq+6), 0},
		{"kind-switch-to-bound", cat(frameRecord("one"), frameBound("two", replaySeq)), 1},
		{"kind-switch-to-plain", cat(frameBound("one", replaySeq), frameRecord("two")), 1},
	}
}

// FuzzWALReplay feeds arbitrary bytes to replay as the only segment and as
// an earlier one. Replay never panics, hands on exactly the leading intact
// records, tolerates any tail in the last segment and refuses a damaged
// earlier one with ErrCorrupt.
func FuzzWALReplay(f *testing.F) {
	for _, s := range replaySeeds() {
		f.Add(s.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		replayBytes(t, data, true)
		replayBytes(t, data, false)
	})
}

// TestWALReplaySeeds runs FuzzWALReplay's seeds as a plain test, with the
// record count each must replay.
func TestWALReplaySeeds(t *testing.T) {
	for _, s := range replaySeeds() {
		if got := replayBytes(t, s.data, true); len(got) != s.records {
			t.Errorf("%s: replayed %d records, want %d", s.name, len(got), s.records)
		}
		replayBytes(t, s.data, false)
	}
}

// TestTornTailLastVersusEarlierSegment: each tail a crash can leave ends
// replay quietly while its segment is the last, and replay cuts the segment
// back to its intact records, so the log appending behind it replays
// whole. The same damage in a segment that is no longer the last is
// ErrCorrupt.
func TestTornTailLastVersusEarlierSegment(t *testing.T) {
	for _, s := range replaySeeds() {
		recs, whole := leadingRecords(s.data, replaySeq)
		if whole {
			continue
		}
		t.Run(s.name, func(t *testing.T) {
			dir := t.TempDir()
			seg := filepath.Join(dir, segmentName(1))
			if err := os.WriteFile(seg, s.data, 0o644); err != nil {
				t.Fatal(err)
			}
			if got := replayAll(t, dir); len(got) != s.records {
				t.Fatalf("last segment: replayed %d records, want %d", len(got), s.records)
			}
			intact := 0
			for _, rec := range recs {
				intact += headerLen + len(rec)
			}
			if data, err := os.ReadFile(seg); err != nil || !bytes.Equal(data, s.data[:intact]) {
				t.Fatalf("last segment after replay: %d bytes (%v), want its %d intact bytes", len(data), err, intact)
			}
			l := openTest(t, Options{Dir: dir}) // appends go to segment 2
			if err := l.Append([]byte("later")); err != nil {
				t.Fatal(err)
			}
			l.Close()
			if got := replayAll(t, dir); len(got) != s.records+1 {
				t.Fatalf("after a later segment: replayed %d records, want %d", len(got), s.records+1)
			}
			if err := os.WriteFile(seg, s.data, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := Replay(dir, nil, func([]byte) error { return nil }); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("earlier segment: %v, want ErrCorrupt", err)
			}
		})
	}
}
