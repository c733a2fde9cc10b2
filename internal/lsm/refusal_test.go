package lsm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"tpcxiot/internal/kvp"
	"tpcxiot/internal/wal"
)

// The store is insert-only and writes one table format with one block
// encoding. Data it no longer writes — a delete in the WAL or in a table, a
// footer-v2 table, a flate-compressed table — is refused at Open with
// ErrCorrupt, and a stored value that is not a tagged row is
// ErrCorrupt wherever a read meets it.

// openRefused opens dir and requires ErrCorrupt.
func openRefused(t *testing.T, dir, what string) {
	t.Helper()
	s, err := Open(Options{Dir: dir, WALSync: wal.SyncNever})
	if err == nil {
		s.Close()
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open of %s = %v, want ErrCorrupt", what, err)
	}
}

// TestWALDeleteRecordRefused: a WAL record of an earlier layout — a put
// with op byte 1, or a delete with op byte 0 — behind a record of today's
// layout fails recovery with ErrCorrupt, and Open leaves the directory as it
// was, byte for byte.
func TestWALDeleteRecordRefused(t *testing.T) {
	for name, old := range map[string][]byte{
		"op-1-put":    {1, 1, 'j', 'v'},
		"op-0-delete": {0, 1, 'k'},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			log, err := wal.Open(wal.Options{Dir: filepath.Join(dir, "wal"), Sync: wal.SyncNever})
			if err != nil {
				t.Fatal(err)
			}
			var put Batch
			put.Add([]byte("i"), []byte("v"))
			if err := log.Append(put.buf, old); err != nil {
				t.Fatal(err)
			}
			if err := log.Close(); err != nil {
				t.Fatal(err)
			}
			before := dirImage(t, dir)
			openRefused(t, dir, "a WAL holding a record of an earlier layout")
			if after := dirImage(t, dir); !reflect.DeepEqual(before, after) {
				t.Fatalf("refused open changed the directory: %d paths before, %d after", len(before), len(after))
			}
		})
	}
}

// TestManifestTableWithDeletesRefused: a v3 table whose manifest record
// counts a tombstone fails Open, although the table itself reads.
func TestManifestTableWithDeletesRefused(t *testing.T) {
	dir := t.TempDir()
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
	man, live, err := openManifest(dir, nil)
	if err != nil || len(live) != 1 {
		t.Fatalf("manifest of %d tables: %v", len(live), err)
	}
	var sound, metas []tableMeta
	for _, m := range live {
		sound = append(sound, m)
		m.Tombstones = 1
		metas = append(metas, m)
	}
	if err := man.rotate(sound); err != nil {
		t.Fatal(err)
	}
	if err := man.logEdit(manifestEdit{Added: metas}, metas); err != nil {
		t.Fatal(err)
	}
	if err := man.close(); err != nil {
		t.Fatal(err)
	}
	openRefused(t, dir, "a manifest table counting a tombstone")
}

// TestStoreWrittenBeforeInsertOnlyRefused: testdata/v2store is a store
// directory written when tables had footer v2 and the store had deletes: its
// newer table holds two. Open refuses it, as it refuses v1 tables, and
// leaves every file as it was.
func TestStoreWrittenBeforeInsertOnlyRefused(t *testing.T) {
	dir := t.TempDir()
	files, err := os.ReadDir("testdata/v2store")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]byte{}
	for _, f := range files {
		b, err := os.ReadFile(filepath.Join("testdata/v2store", f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, f.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
		want[f.Name()] = b
	}
	openRefused(t, dir, "a store of footer-v2 tables with deletes")
	got, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range got {
		b, err := os.ReadFile(filepath.Join(dir, f.Name()))
		if err != nil || !bytes.Equal(b, want[f.Name()]) {
			t.Fatalf("%s changed or appeared on a refused open (%v)", f.Name(), err)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%d files after a refused open, %d before", len(got), len(want))
	}
}

// TestLegacyManifestLayoutRefused: a directory holding CURRENT and
// MANIFEST-000001 — the manifest layout before the manifest became a
// wal.Log, here taken from testdata/v2store without its tables — fails Open
// with ErrCorrupt, and Open leaves every file as it was.
func TestLegacyManifestLayoutRefused(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"CURRENT", "MANIFEST-000001"} {
		b, err := os.ReadFile(filepath.Join("testdata/v2store", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	before := dirImage(t, dir)
	openRefused(t, dir, "a store of the CURRENT + MANIFEST layout")
	if after := dirImage(t, dir); !reflect.DeepEqual(before, after) {
		t.Fatalf("refused open changed the directory: %d paths before, %d after", len(before), len(after))
	}
}

// TestFlateTableInStoreRefused: a closed store one of whose tables has
// footer byte 56 — the block encoding a flate-compressing writer set to 1 —
// set fails Open with ErrCorrupt, and the error names that table.
func TestFlateTableInStoreRefused(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, WALSync: wal.SyncNever, DisableAutoFlush: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"a", "b"} {
		if err := s.Put([]byte(k), []byte("v")); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	tables, err := filepath.Glob(filepath.Join(dir, "*.sst"))
	if err != nil || len(tables) != 2 {
		t.Fatalf("store holds tables %v (%v), want two", tables, err)
	}
	img, err := os.ReadFile(tables[0])
	if err != nil {
		t.Fatal(err)
	}
	img[len(img)-96+56] = 1
	if err := os.WriteFile(tables[0], img, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err = Open(Options{Dir: dir, WALSync: wal.SyncNever})
	if err == nil {
		s.Close()
	}
	if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), filepath.Base(tables[0])) {
		t.Fatalf("Open of a store holding a flate table = %v, want ErrCorrupt naming %s", err, filepath.Base(tables[0]))
	}
}

// TestUntaggedValueIsCorrupt: a stored value of one byte (tag 0, a delete's
// old tombstone) or of none, behind a sound row, fails Get, NewIterator and
// AggregateTime with ErrCorrupt — from the memtable and from a table.
func TestUntaggedValueIsCorrupt(t *testing.T) {
	good := kvp.Key{Substation: "sub0", Sensor: "sa", Timestamp: 5}
	bad := kvp.Key{Substation: "sub0", Sensor: "sa", Timestamp: 10}.Encode()
	for name, stored := range map[string][]byte{"one-byte": {0}, "empty": {}} {
		t.Run(name, func(t *testing.T) {
			s := openTest(t, Options{DisableAutoFlush: true})
			aggPut(t, s, good.Substation, good.Sensor, good.Timestamp, 1)
			s.active.Put(bad, stored)
			for _, stage := range []string{"memtable", "table"} {
				if stage == "table" {
					if err := s.Flush(); err != nil {
						t.Fatal(err)
					}
				}
				if _, _, err := s.Get(bad); !errors.Is(err, ErrCorrupt) {
					t.Fatalf("%s: Get = %v, want ErrCorrupt", stage, err)
				}
				it, err := s.NewIterator(nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				n := 0
				for ; it.Valid(); it.Next() {
					n++
				}
				if err := it.Close(); n != 1 || !errors.Is(err, ErrCorrupt) {
					t.Fatalf("%s: iterator yields %d rows, then %v; want the sound row, then ErrCorrupt", stage, n, err)
				}
				lo, hi := aggRange("sub0", 0, 0)
				if _, err := s.AggregateTime(lo, hi, 0, math.MaxInt64, 0, allAggFuncs); !errors.Is(err, ErrCorrupt) {
					t.Fatalf("%s: AggregateTime = %v, want ErrCorrupt", stage, err)
				}
			}
		})
	}
}

// replayRecords splits a FuzzStoreReplay input into WAL records: each is a
// uvarint length and that many bytes, and a length past the end takes the
// rest. Empty records, which the WAL refuses, are left out.
func replayRecords(in []byte) [][]byte {
	var recs [][]byte
	for len(in) > 0 {
		n, k := binary.Uvarint(in)
		if k <= 0 {
			return recs
		}
		in = in[k:]
		n = min(n, uint64(len(in)))
		if n > 0 {
			recs = append(recs, in[:n])
		}
		in = in[n:]
	}
	return recs
}

// replayInput is replayRecords' inverse.
func replayInput(recs ...[]byte) []byte {
	var in []byte
	for _, r := range recs {
		in = binary.AppendUvarint(in, uint64(len(r)))
		in = append(in, r...)
	}
	return in
}

// modelRecord decodes a WAL record, a batch, by the layout Batch documents,
// apart from the store's decoder: one or more puts, each op byte 2, key and
// value lengths, the key, tag 1 and the value, with a non-empty key, and
// nothing after the last. It returns the rows in order.
func modelRecord(rec []byte) (rows [][2][]byte, ok bool) {
	for len(rec) > 0 {
		if rec[0] != 2 {
			return nil, false
		}
		klen, k := binary.Uvarint(rec[1:])
		if k <= 0 {
			return nil, false
		}
		vlen, v := binary.Uvarint(rec[1+k:])
		if v <= 0 {
			return nil, false
		}
		body := rec[1+k+v:]
		if klen == 0 || klen >= uint64(len(body)) || vlen > uint64(len(body))-klen-1 || body[klen] != 1 {
			return nil, false
		}
		rows = append(rows, [2][]byte{body[:klen], body[klen+1 : klen+1+vlen]})
		rec = body[klen+1+vlen:]
	}
	return rows, true
}

// storeReplaySeeds are FuzzStoreReplay's seeds, each a sequence of records
// as replayRecords splits them.
func storeReplaySeeds() [][]byte {
	var a, b Batch
	a.Add([]byte("k"), []byte("v1"))
	b.Add([]byte("k"), []byte("v2"))
	b.Add(kvp.Key{Substation: "sub0", Sensor: "s", Timestamp: 7}.Encode(), []byte("1.5"))
	reading := append([]byte{2, 1, 8, 'r', tagReading}, make([]byte, 8)...)
	short := append(bytes.Clone(a.buf), 2, 1, 9, 'k', 1, 'v')
	return [][]byte{
		replayInput(a.buf),
		replayInput(a.buf, b.buf[:len(a.buf)], b.buf[len(a.buf):]), // an overwrite, then a kvp key
		replayInput(a.buf, []byte{1, 1, 'j', 'v'}),                 // the put of the layout before
		replayInput(a.buf, []byte{0, 1, 'k'}),                      // a delete
		replayInput([]byte{2, 0x80}),                               // a key length cut short
		replayInput([]byte{2, 10, 1, 'k', 1, 'v'}),                 // a key length past the end
		replayInput(reading),                                       // a reading column's tag
		replayInput([]byte{2, 0, 1, 1, 'v'}),                       // an empty key
		replayInput(a.buf, b.buf),                                  // a batch of two rows
		replayInput(short),                                         // a batch whose second put runs short
	}
}

// FuzzStoreReplay writes the fuzzed records through wal.Log into an empty
// store directory and opens it. Open either refuses the log with ErrCorrupt
// — exactly when some record does not decode by modelRecord — and leaves
// the directory as it was, or opens and serves through Get the last value
// the model decodes for every key. It never panics. Tier-1 replays the
// seeds.
func FuzzStoreReplay(f *testing.F) {
	for _, seed := range storeReplaySeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		recs := replayRecords(in)
		if len(recs) == 0 {
			return
		}
		dir := t.TempDir()
		log, err := wal.Open(wal.Options{Dir: filepath.Join(dir, "wal"), Sync: wal.SyncNever})
		if err != nil {
			t.Fatal(err)
		}
		if err := log.Append(recs...); err != nil {
			t.Fatal(err)
		}
		if err := log.Close(); err != nil {
			t.Fatal(err)
		}
		want, valid := map[string]string{}, true
		for _, rec := range recs {
			rows, ok := modelRecord(rec)
			if !ok {
				valid = false
				break
			}
			for _, row := range rows {
				want[string(row[0])] = string(row[1])
			}
		}
		before := dirImage(t, dir)
		s, err := Open(Options{Dir: dir, WALSync: wal.SyncNever, DisableAutoFlush: true})
		if !valid {
			if err == nil {
				s.Close()
			}
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Open of a log the model refuses = %v, want ErrCorrupt", err)
			}
			if after := dirImage(t, dir); !reflect.DeepEqual(before, after) {
				t.Fatalf("refused open changed the directory: %d paths before, %d after", len(before), len(after))
			}
			return
		}
		if err != nil {
			t.Fatalf("Open of a log the model decodes: %v", err)
		}
		defer s.Close()
		for k, v := range want {
			got, ok, err := s.Get([]byte(k))
			if err != nil || !ok || string(got) != v {
				t.Fatalf("Get(%q) = %q, %v, %v; want %q", k, got, ok, err, v)
			}
		}
	})
}
