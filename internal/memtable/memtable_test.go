package memtable

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"tpcxiot/internal/kvp"
)

func TestPutGet(t *testing.T) {
	m := New(1)
	m.Put([]byte("b"), []byte("2"))
	m.Put([]byte("a"), []byte("1"))
	m.Put([]byte("c"), []byte("3"))

	for k, want := range map[string]string{"a": "1", "b": "2", "c": "3"} {
		got, ok := m.Get([]byte(k))
		if !ok || string(got) != want {
			t.Fatalf("Get(%q) = %q,%v; want %q", k, got, ok, want)
		}
	}
	if _, ok := m.Get([]byte("missing")); ok {
		t.Fatal("Get of absent key reported present")
	}
}

func TestOverwrite(t *testing.T) {
	m := New(2)
	m.Put([]byte("k"), []byte("old"))
	m.Put([]byte("k"), []byte("newer"))
	got, ok := m.Get([]byte("k"))
	if !ok || string(got) != "newer" {
		t.Fatalf("Get after overwrite = %q,%v", got, ok)
	}
	if m.Len() != 1 {
		t.Fatalf("Len after overwrite = %d, want 1", m.Len())
	}
	if m.Size() != int64(len("k")+len("newer")) {
		t.Fatalf("Size after overwrite = %d", m.Size())
	}
}

// TestPutKeepsInputs: Put keeps the slices it is given, capacity-capped, so
// an append to a stored key or value copies instead of writing into the
// caller's buffer past them.
func TestPutKeepsInputs(t *testing.T) {
	m := New(3)
	buf := []byte("keyvalXX")
	m.Put(buf[:3], buf[3:6])
	it := m.NewIterator()
	it.SeekToFirst()
	if !it.Valid() || &it.Key()[0] != &buf[0] || &it.Value()[0] != &buf[3] {
		t.Fatal("Put copied its inputs")
	}
	_ = append(it.Key(), 'Y')
	_ = append(it.Value(), 'Z')
	if string(buf) != "keyvalXX" {
		t.Fatalf("an append to a stored slice wrote into the caller's buffer: %q", buf)
	}
}

func TestGetCopiesOutput(t *testing.T) {
	m := New(4)
	m.Put([]byte("k"), []byte("val"))
	got, _ := m.Get([]byte("k"))
	got[0] = 'X'
	again, _ := m.Get([]byte("k"))
	if string(again) != "val" {
		t.Fatal("Get returned an aliased internal slice")
	}
}

func TestIterationSorted(t *testing.T) {
	m := New(5)
	keys := []string{"delta", "alpha", "echo", "charlie", "bravo"}
	for _, k := range keys {
		m.Put([]byte(k), []byte("v-"+k))
	}
	it := m.NewIterator()
	it.SeekToFirst()
	var got []string
	for ; it.Valid(); it.Next() {
		got = append(got, string(it.Key()))
	}
	want := append([]string(nil), keys...)
	sort.Strings(want)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("iteration order %v, want %v", got, want)
	}
}

func TestSeek(t *testing.T) {
	m := New(6)
	for i := 0; i < 100; i += 2 {
		m.Put([]byte(fmt.Sprintf("k%03d", i)), []byte("v"))
	}
	it := m.NewIterator()

	it.Seek([]byte("k051")) // between k050 and k052
	if !it.Valid() || string(it.Key()) != "k052" {
		t.Fatalf("Seek(k051) landed on %q", it.Key())
	}

	it.Seek([]byte("k050")) // exact hit
	if !it.Valid() || string(it.Key()) != "k050" {
		t.Fatalf("Seek(k050) landed on %q", it.Key())
	}

	it.Seek([]byte("k999")) // past the end
	if it.Valid() {
		t.Fatal("Seek past end should be invalid")
	}

	it.Seek([]byte("")) // before the beginning
	if !it.Valid() || string(it.Key()) != "k000" {
		t.Fatalf("Seek(empty) landed on %q", it.Key())
	}
}

func TestEmptyTable(t *testing.T) {
	m := New(7)
	if m.Len() != 0 || m.Size() != 0 {
		t.Fatal("fresh table not empty")
	}
	it := m.NewIterator()
	it.SeekToFirst()
	if it.Valid() {
		t.Fatal("iterator over empty table is valid")
	}
	it.Next() // must not panic
}

func TestSizeAccounting(t *testing.T) {
	m := New(8)
	m.Put([]byte("abc"), []byte("12345"))
	if m.Size() != 8 {
		t.Fatalf("Size = %d, want 8", m.Size())
	}
	m.Put([]byte("x"), []byte("y"))
	if m.Size() != 10 {
		t.Fatalf("Size = %d, want 10", m.Size())
	}
}

func TestConcurrentWritersReaders(t *testing.T) {
	m := New(9)
	const writers = 4
	const perWriter = 2000
	var wg sync.WaitGroup

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				k := []byte(fmt.Sprintf("w%d-%06d", w, i))
				m.Put(k, k)
			}
		}(w)
	}
	// Concurrent scanners must never observe unsorted order or crash.
	stop := make(chan struct{})
	var scanErr error
	var scanWg sync.WaitGroup
	for r := 0; r < 2; r++ {
		scanWg.Add(1)
		go func() {
			defer scanWg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				it := m.NewIterator()
				it.SeekToFirst()
				var prev []byte
				for ; it.Valid(); it.Next() {
					if prev != nil && bytes.Compare(prev, it.Key()) >= 0 {
						scanErr = fmt.Errorf("unsorted scan: %q then %q", prev, it.Key())
						return
					}
					prev = append(prev[:0], it.Key()...)
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	scanWg.Wait()
	if scanErr != nil {
		t.Fatal(scanErr)
	}

	if m.Len() != writers*perWriter {
		t.Fatalf("Len = %d, want %d", m.Len(), writers*perWriter)
	}
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i += 97 {
			k := []byte(fmt.Sprintf("w%d-%06d", w, i))
			if _, ok := m.Get(k); !ok {
				t.Fatalf("lost key %q", k)
			}
		}
	}
}

// TestConcurrentSeriesAppendsAndScans runs writers that append to series
// of their own and to series they share (where their timestamps interleave,
// so some arrive late and go to the fallback) while readers walk the table
// from SeekToFirst and from Seek. Every walk must be strictly increasing
// and must hold every key whose Put returned before its iterator was made.
func TestConcurrentSeriesAppendsAndScans(t *testing.T) {
	m := New(16)
	const writers, perWriter = 3, 1500
	seriesKey := func(w, i int) []byte {
		k := kvp.Key{Substation: "sub", Sensor: fmt.Sprintf("own-%d-%02d", w, i%7), Timestamp: int64(i)}
		if i%3 == 0 { // a shared series, new ones appearing as i grows
			k.Sensor = fmt.Sprintf("shared-%02d", i/100)
			k.Timestamp = int64(i*writers + w)
		}
		return k.Encode()
	}
	var done [writers]atomic.Int64 // Puts returned, per writer
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				k := seriesKey(w, i)
				m.Put(k, k)
				done[w].Store(int64(i + 1))
				if i%64 == 0 {
					runtime.Gosched() // let the readers in on two cores
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	errs := make(chan error, 2)
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for walk := 0; ; walk++ {
				select {
				case <-stop:
					if walk >= 10 {
						errs <- nil
						return
					}
				default:
				}
				var upTo [writers]int
				for w := range upTo {
					upTo[w] = int(done[w].Load())
				}
				it := m.NewIterator()
				var from []byte
				if walk%2 == 1 && upTo[r] > 0 {
					from = seriesKey(r, walk%upTo[r])
					it.Seek(from)
				} else {
					it.SeekToFirst()
				}
				seen := map[string]bool{}
				var prev []byte
				for ; it.Valid(); it.Next() {
					if prev != nil && bytes.Compare(prev, it.Key()) >= 0 {
						errs <- fmt.Errorf("walk not increasing: %q then %q", prev, it.Key())
						return
					}
					if !bytes.Equal(it.Key(), it.Value()) {
						errs <- fmt.Errorf("key %q holds value %q", it.Key(), it.Value())
						return
					}
					prev = it.Key()
					seen[string(prev)] = true
				}
				for w := range upTo {
					for i := 0; i < upTo[w]; i++ {
						if k := seriesKey(w, i); bytes.Compare(k, from) >= 0 && !seen[string(k)] {
							errs <- fmt.Errorf("walk from %q missed %q, written before the walk", from, k)
							return
						}
					}
				}
			}
		}(r)
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	for r := 0; r < 2; r++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if m.Len() != writers*perWriter {
		t.Fatalf("Len = %d, want %d", m.Len(), writers*perWriter)
	}
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i++ {
			if _, ok := m.Get(seriesKey(w, i)); !ok {
				t.Fatalf("lost key %q", seriesKey(w, i))
			}
		}
	}
}

func TestPropertyMatchesSortedMap(t *testing.T) {
	f := func(ops [][2][]byte) bool {
		m := New(10)
		model := map[string]string{}
		for _, op := range ops {
			k, v := op[0], op[1]
			if len(k) == 0 {
				continue
			}
			m.Put(k, v)
			model[string(k)] = string(v)
		}
		// Every model entry must be retrievable.
		for k, v := range model {
			got, ok := m.Get([]byte(k))
			if !ok || string(got) != v {
				return false
			}
		}
		// Iteration must yield the model's keys in sorted order.
		want := make([]string, 0, len(model))
		for k := range model {
			want = append(want, k)
		}
		sort.Strings(want)
		it := m.NewIterator()
		it.SeekToFirst()
		i := 0
		for ; it.Valid(); it.Next() {
			if i >= len(want) || string(it.Key()) != want[i] {
				return false
			}
			i++
		}
		return i == len(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkPut inserts keys the fallback holds. Put keeps its key, so each
// gets a slice of its own.
func BenchmarkPut(b *testing.B) {
	m := New(11)
	const keyLen = 32
	keys := make([]byte, b.N*keyLen)
	val := make([]byte, 1024)
	b.SetBytes(int64(keyLen + len(val)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := keys[i*keyLen : (i+1)*keyLen]
		copy(key, fmt.Sprintf("key-%020d", i))
		m.Put(key, val)
	}
}

func BenchmarkGet(b *testing.B) {
	m := New(12)
	const n = 100000
	for i := 0; i < n; i++ {
		m.Put([]byte(fmt.Sprintf("key-%08d", i)), []byte("value"))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Get([]byte(fmt.Sprintf("key-%08d", i%n)))
	}
}

// TestPutAllocsAmortised pins the slabs: a new key costs a share of one
// entry slab and of its run's array, not allocations of its own.
func TestPutAllocsAmortised(t *testing.T) {
	const rows, runs = 4000, 4
	keys := make([][]byte, rows*(runs+1))
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("sub-%04d/sensor/%012d", i%97, i))
	}
	val := bytes.Repeat([]byte("v"), 1024)
	m := New(13)
	next := 0
	perRow := testing.AllocsPerRun(runs, func() {
		for _, k := range keys[next : next+rows] {
			m.Put(k, val)
		}
		next += rows
	}) / rows
	t.Logf("%.4f allocations per row", perRow)
	if perRow >= 0.05 {
		t.Fatalf("Put allocates %.3f times per new 1 KiB row, want < 0.05", perRow)
	}
}

// memtableFuzzSeeds are op streams for FuzzMemtable (see memtableOps).
var memtableFuzzSeeds = [][]byte{
	{},
	{0, 1, 'a', 10, 0, 1, 'b', 0, 3, 0, 3, 1, 'a', 4},
	{0, 2, 'k', 'k', 201, 1, 0, 202, 3, 1, 'k', 5, 0, 6, 0, 1, 'z', 203},
	{0, 1, 'm', 50, 0, 1, 'a', 199, 3, 0, 5, 1, 1, 0, 200, 2, 0, 1, 'm', 3, 0, 6, 0},
	{0, 3, 'a', 'b', 'c', 204, 0, 3, 'a', 'b', 'd', 204, 0, 0, 1, 1, 1, 205, 3, 0, 5, 0, 4},
	// Series a|x: appends @1 @3 @6, @6 again and @1 again (overwrites in
	// the run), @4 late (fallback); short keys around the run, a cut c|x
	// key, a new series b|x; walks and seeks across the run/fallback
	// boundary.
	{
		0, 129, 0, 1, 0, 129, 1, 2, 0, 129, 2, 3, 0, 129, 160, 9, 0, 129, 162, 4, 0, 129, 241, 5,
		0, 1, 'a', 5, 0, 2, 'a', 'a', 6, 0, 248, 0, 7, 0, 130, 0, 8, 6,
		3, 1, 129, 162, 7, 1, 3, 9, 3, 1, 244, 0, 7, 4, 2, 129, 241, 2, 129, 162, 4,
	},
	// One series' run outgrows its first array while walks hold its slices.
	{
		0, 129, 0, 0, 0, 129, 0, 0, 0, 129, 0, 0, 0, 129, 0, 0, 0, 129, 0, 0,
		0, 129, 0, 0, 0, 129, 0, 0, 0, 129, 0, 0, 0, 129, 0, 0, 0, 129, 0, 0,
		3, 0, 7, 5, 0, 3, 3, 1, 129, 170, 7,
		0, 129, 0, 0, 0, 129, 0, 0, 0, 129, 0, 0, 0, 129, 0, 0, 0, 129, 0, 0,
		0, 129, 0, 0, 0, 129, 0, 0, 0, 129, 0, 0, 1, 5, 3, 6, 3, 1, 129, 170, 7, 4,
	},
	// A negative timestamp, and a jump ahead that sends the series' next
	// drawn timestamps to the fallback.
	{
		0, 129, 0, 1, 0, 129, 0, 1, 0, 129, 0, 1, 0, 129, 0, 1, 0, 129, 0, 1,
		0, 129, 230, 2, 0, 129, 250, 3, 0, 129, 0, 4, 6, 3, 1, 0, 7, 2, 129, 230, 4,
	},
}

// memtableValue is a value of n bytes whose content depends on tag, so
// values written by different ops differ.
func memtableValue(n int, tag byte) []byte {
	v := make([]byte, n)
	for i := range v {
		v[i] = tag + byte(i*7)
	}
	return v
}

// memtableValueLen maps a selector byte to a value length: small lengths
// in steps of 8 bytes, and from 200 on lengths of 16 and 64 KiB and around
// them.
func memtableValueLen(sel byte) int {
	big := []int{0, 1, 16<<10 - 3, 16 << 10, 16<<10 + 1, 64<<10 - 1, 64<<10 + 1}
	if sel >= 200 {
		return big[int(sel-200)%len(big)]
	}
	return int(sel) * 8
}

// held is a slice the table returned, with the bytes it had then.
type held struct {
	got, want []byte
}

// FuzzMemtable runs an op stream against the table and a sorted-map model:
// new and overwriting Puts (values from empty to over 64 KiB, each Put's key
// and value in fresh slices, which the table keeps), Get,
// SeekToFirst/Seek/Next walks, Len and Size. Keys are short strings, which
// only the fallback skiplist holds, or kvp keys of three series that land in
// a series' run when they arrive in timestamp order and in the fallback when
// they arrive late, mixed with kvp keys cut short. Every key and value slice a
// walk returned must keep its bytes through later Puts, and an append to
// one must change no entry.
func FuzzMemtable(f *testing.F) {
	for _, s := range memtableFuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		memtableOps(t, ops)
	})
}

func TestMemtableFuzzSeeds(t *testing.T) {
	for _, s := range memtableFuzzSeeds {
		memtableOps(t, s)
	}
}

func memtableOps(t *testing.T, ops []byte) {
	m := New(14)
	model := map[string][]byte{}
	var size int64
	var kept []held
	pos := 0
	next := func() byte {
		if pos >= len(ops) {
			return 0
		}
		pos++
		return ops[pos-1]
	}
	var tails [3]int64 // the newest timestamp drawn per series
	key := func() []byte {
		sel := next()
		if sel < 128 { // up to 3 bytes from a 4-letter alphabet
			k := make([]byte, int(sel)%4)
			for i := range k {
				k[i] = 'a' + next()%4
			}
			return k
		}
		// A kvp key of series a|x, b|x or c|x, which sort among the short
		// keys: mostly the series' next timestamp, else its newest or an
		// older one. From 240 on, the key is cut short by 1 to 12 bytes:
		// not kvp-shaped, and sorting before the series' run (at 8, the
		// bare series prefix).
		s, d := int(sel)%3, next()
		var ts int64
		switch {
		case d < 160:
			tails[s] += 1 + int64(d%3)
			ts = tails[s]
		case d < 224:
			ts = tails[s] - int64(d%8)
		default:
			ts = int64(d) - 240
		}
		k := kvp.Key{Substation: string(rune('a' + s)), Sensor: "x", Timestamp: ts}.Encode()
		if sel >= 240 {
			k = k[:len(k)-1-int(sel-240)%12]
		}
		return k
	}
	sortedKeys := func() []string {
		ks := make([]string, 0, len(model))
		for k := range model {
			ks = append(ks, k)
		}
		sort.Strings(ks)
		return ks
	}
	keep := func(b []byte) {
		if len(kept) < 256 {
			kept = append(kept, held{b, append([]byte(nil), b...)})
		}
	}
	for step := 0; pos < len(ops); step++ {
		switch op := next() % 7; op {
		case 0, 1: // Put: a new key, or an overwrite of a model key
			k := key()
			if op == 1 && len(model) > 0 {
				ks := sortedKeys()
				k = []byte(ks[int(next())%len(ks)])
			}
			v := memtableValue(memtableValueLen(next()), byte(step))
			if old, ok := model[string(k)]; ok {
				size -= int64(len(k) + len(old))
			}
			model[string(k)] = append([]byte(nil), v...)
			size += int64(len(k) + len(v))
			m.Put(k, v)
		case 2: // Get
			k := key()
			got, ok := m.Get(k)
			want, wok := model[string(k)]
			if ok != wok || !bytes.Equal(got, want) {
				t.Fatalf("step %d: Get(%q) = %d bytes,%v; want %d bytes,%v", step, k, len(got), ok, len(want), wok)
			}
		case 3: // a walk from SeekToFirst or Seek
			it := m.NewIterator()
			ks := sortedKeys()
			i := 0
			if from := next(); from%2 == 0 {
				it.SeekToFirst()
			} else {
				target := key()
				it.Seek(target)
				i = sort.SearchStrings(ks, string(target))
			}
			for n := int(next()) % 8; n >= 0; n-- {
				if it.Valid() != (i < len(ks)) {
					t.Fatalf("step %d: iterator valid=%v at model index %d of %d", step, it.Valid(), i, len(ks))
				}
				if !it.Valid() {
					break
				}
				if string(it.Key()) != ks[i] || !bytes.Equal(it.Value(), model[ks[i]]) {
					t.Fatalf("step %d: iterator at %q, want %q", step, it.Key(), ks[i])
				}
				keep(it.Key())
				keep(it.Value())
				it.Next()
				i++
			}
		case 4: // Len and Size
			if m.Len() != int64(len(model)) || m.Size() != size {
				t.Fatalf("step %d: Len %d Size %d, want %d %d", step, m.Len(), m.Size(), len(model), size)
			}
		case 5: // append to a returned slice
			if len(kept) > 0 {
				h := kept[int(next())%len(kept)]
				_ = append(h.got, bytes.Repeat([]byte{0xee}, int(next())+1)...)
			}
		case 6: // every entry, through a fresh walk
			it := m.NewIterator()
			it.SeekToFirst()
			for _, k := range sortedKeys() {
				if !it.Valid() || string(it.Key()) != k || !bytes.Equal(it.Value(), model[k]) {
					t.Fatalf("step %d: full walk diverged at %q", step, k)
				}
				it.Next()
			}
			if it.Valid() {
				t.Fatalf("step %d: walk past the model's last key: %q", step, it.Key())
			}
		}
		for i, h := range kept {
			if !bytes.Equal(h.got, h.want) {
				t.Fatalf("step %d: returned slice %d changed: %d bytes now differ", step, i, len(h.got))
			}
		}
	}
	if m.Len() != int64(len(model)) || m.Size() != size {
		t.Fatalf("end: Len %d Size %d, want %d %d", m.Len(), m.Size(), len(model), size)
	}
}

// BenchmarkPutSeries inserts kit-shaped rows: 1 KiB kvp pairs from 200
// sensors of two substations, each sensor's timestamps increasing, into a
// fresh table every ~4 MiB (the store's default flush point).
func BenchmarkPutSeries(b *testing.B) {
	const series, perTable = 200, 4 << 20 / kvp.PairSize
	keys := make([][]byte, perTable)
	for i := range keys {
		k := kvp.Key{
			Substation: fmt.Sprintf("substation-%05d", i%series%2),
			Sensor:     fmt.Sprintf("sensor-%03d", i%series),
			Timestamp:  1_500_000_000_000 + int64(i/series),
		}
		keys[i] = k.Encode()
	}
	val := bytes.Repeat([]byte("v"), kvp.PairSize-len(keys[0]))
	b.SetBytes(int64(len(keys[0]) + len(val)))
	var m *Memtable
	for i := 0; i < b.N; i++ {
		if i%perTable == 0 {
			m = New(15)
		}
		m.Put(keys[i%perTable], val)
	}
}
