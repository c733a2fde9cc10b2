package lsm

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"os"
	"testing"

	"tpcxiot/internal/gen"
	"tpcxiot/internal/kvp"
	"tpcxiot/internal/wal"
)

// The digests below were computed with the skiplist memtable, before the
// memtable kept a run per series. They pin every byte the store hands on
// from a memtable: the flushed table file and a full iterator walk.
const (
	goldenTableDigest = "0679ad878700241a04d33895d340f8d4beda32b5e59e711cb2b2b739635a16ec"
	goldenWalkDigest  = "17671c431832478087042c7d523c228158afa537b94b33c4688199085bbd6d0b"
)

// goldenBatches is a seeded write stream shaped like the kit's and then
// some: mostly in-order appends to a dozen series, with overwrites of
// existing timestamps, new timestamps older than their series' newest, and
// keys that are not kvp-shaped. Every value is an encoded kvp.Value, so the
// flushed table carries a reading column.
func goldenBatches() [][]Write {
	r := gen.NewRNG(37)
	const series = 12
	tails := make([]int64, series) // newest timestamp written per series
	var written [series][]int64    // every timestamp written per series
	value := func() []byte {
		reading := fmt.Sprintf("%d.%02d", r.Intn(2000)-1000, r.Intn(100))
		pad := gen.Text(r, make([]byte, r.Intn(300)))
		return kvp.Value{Reading: reading, Unit: "unit-" + string(rune('a'+r.Intn(26))), Padding: pad}.Encode()
	}
	key := func(s int, ts int64) []byte {
		return kvp.Key{Substation: fmt.Sprintf("sub-%02d", s%3), Sensor: fmt.Sprintf("sensor-%02d", s), Timestamp: ts}.Encode()
	}
	var batches [][]Write
	for b := 0; b < 40; b++ {
		batch := make([]Write, 0, 64)
		for i := 0; i < 1+r.Intn(64); i++ {
			s := r.Intn(series)
			var k []byte
			switch p := r.Intn(100); {
			case p < 70 || len(written[s]) == 0: // the series' next timestamp
				tails[s] += 2 * int64(1+r.Intn(3))
				written[s] = append(written[s], tails[s])
				k = key(s, tails[s])
			case p < 82: // an overwrite of a timestamp already written
				k = key(s, written[s][r.Intn(len(written[s]))])
			case p < 92: // a new timestamp older than the series' newest
				ts := 2*r.Int63n(tails[s]/2+1) + 1
				if ts > tails[s] {
					ts = tails[s] - 1
				}
				written[s] = append(written[s], ts)
				k = key(s, ts)
			default: // not a kvp key: no separators, or a short timestamp
				if r.Intn(2) == 0 {
					k = []byte(fmt.Sprintf("meta/%03d", r.Intn(200)))
				} else {
					k = append(key(s, tails[s])[:len(key(s, 0))-3], byte(r.Intn(256)))
				}
			}
			batch = append(batch, Write{Key: k, Value: value()})
		}
		batches = append(batches, batch)
	}
	return batches
}

// walkDigest hashes every (key, value) of a full walk, with lengths, so
// neither a moved boundary nor a missing row can hide.
func walkDigest(t *testing.T, s *Store) string {
	t.Helper()
	h := sha256.New()
	rows := 0
	if err := scan(s, nil, nil, func(k, v []byte) error {
		writeLenPrefixed(h, k)
		writeLenPrefixed(h, v)
		rows++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if rows == 0 {
		t.Fatal("walk returned no rows")
	}
	return hex.EncodeToString(h.Sum(nil))
}

func writeLenPrefixed(h hash.Hash, b []byte) {
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], uint32(len(b)))
	h.Write(n[:])
	h.Write(b)
}

func applyGolden(t *testing.T, s *Store) {
	t.Helper()
	for _, b := range goldenBatches() {
		if err := s.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
	}
}

// flushedTableDigest flushes s, which must hold no table yet, and hashes the
// one table file the flush wrote.
func flushedTableDigest(t *testing.T, s *Store) string {
	t.Helper()
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	tables := append([]*tableHandle(nil), s.tables...)
	s.mu.Unlock()
	if len(tables) != 1 {
		t.Fatalf("flush left %d tables, want 1", len(tables))
	}
	if tables[0].columnBytes == 0 {
		t.Fatal("flushed table has no reading column")
	}
	b, err := os.ReadFile(tables[0].path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func TestMemtableGoldenBytes(t *testing.T) {
	s := openTest(t, Options{DisableAutoFlush: true})
	applyGolden(t, s)
	if got := walkDigest(t, s); got != goldenWalkDigest {
		t.Errorf("walk before flush: digest %s, want %s", got, goldenWalkDigest)
	}
	if got := flushedTableDigest(t, s); got != goldenTableDigest {
		t.Errorf("flushed table: digest %s, want %s", got, goldenTableDigest)
	}
}

// TestMemtableGoldenBytesAfterReplay crashes before the flush: the reopened
// store rebuilds its memtable from the WAL, and the walk and the table it
// then flushes must be the same bytes.
func TestMemtableGoldenBytesAfterReplay(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, WALSync: wal.SyncNever, DisableAutoFlush: true})
	if err != nil {
		t.Fatal(err)
	}
	applyGolden(t, s)
	s.log.Close()

	s2 := openTest(t, Options{Dir: dir, DisableAutoFlush: true})
	if got := walkDigest(t, s2); got != goldenWalkDigest {
		t.Errorf("walk after replay: digest %s, want %s", got, goldenWalkDigest)
	}
	if got := flushedTableDigest(t, s2); got != goldenTableDigest {
		t.Errorf("table flushed after replay: digest %s, want %s", got, goldenTableDigest)
	}
}
