package lsm

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"tpcxiot/internal/kvp"
	"tpcxiot/internal/wal"
)

// The store is insert-only and writes one table format. Data it no longer
// writes — a delete in the WAL or in a table, a footer-v2 table — is refused
// at Open with ErrCorrupt, and a stored value that is not a tagged row is
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

// TestWALDeleteRecordRefused: a WAL record with op byte 0, a delete of key
// "k", fails recovery.
func TestWALDeleteRecordRefused(t *testing.T) {
	dir := t.TempDir()
	log, err := wal.Open(wal.Options{Dir: filepath.Join(dir, "wal"), Sync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	put := []byte{tagValue, 1, 'j', 'v'}
	if err := log.Append(put, []byte{0, 1, 'k'}); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	openRefused(t, dir, "a WAL holding a delete")
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
	var metas []tableMeta
	for _, m := range live {
		m.Tombstones = 1
		metas = append(metas, m)
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
