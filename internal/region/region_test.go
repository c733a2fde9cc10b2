package region

import (
	"errors"
	"fmt"
	"testing"

	"tpcxiot/internal/lsm"
	"tpcxiot/internal/telemetry"
	"tpcxiot/internal/wal"
)

func testOpts() lsm.Options {
	return lsm.Options{WALSync: wal.SyncNever}
}

func openRegion(t *testing.T, start, end []byte) *Region {
	t.Helper()
	r, err := Open(Info{Table: "iot", Name: "iot-test", StartKey: start, EndKey: end},
		t.TempDir(), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

func TestContains(t *testing.T) {
	cases := []struct {
		start, end string
		key        string
		want       bool
	}{
		{"", "", "anything", true}, // unbounded
		{"b", "", "a", false},      // below start
		{"b", "", "b", true},       // at start (inclusive)
		{"", "m", "m", false},      // at end (exclusive)
		{"", "m", "lzz", true},     // just below end
		{"b", "m", "f", true},      // inside
		{"b", "m", "z", false},     // above end
	}
	for _, tc := range cases {
		var start, end []byte
		if tc.start != "" {
			start = []byte(tc.start)
		}
		if tc.end != "" {
			end = []byte(tc.end)
		}
		in := Info{StartKey: start, EndKey: end}
		if got := in.Contains([]byte(tc.key)); got != tc.want {
			t.Errorf("Contains(%q) in [%q,%q) = %v, want %v", tc.key, tc.start, tc.end, got, tc.want)
		}
	}
}

func TestBoundsEnforced(t *testing.T) {
	r := openRegion(t, []byte("b"), []byte("m"))
	if err := r.Put([]byte("z"), []byte("v")); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("Put outside bounds: %v", err)
	}
	if err := r.Delete([]byte("a")); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("Delete outside bounds: %v", err)
	}
	if _, _, err := r.Get([]byte("z")); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("Get outside bounds: %v", err)
	}
	if err := r.Put([]byte("f"), []byte("v")); err != nil {
		t.Fatalf("Put inside bounds: %v", err)
	}
	v, ok, err := r.Get([]byte("f"))
	if err != nil || !ok || string(v) != "v" {
		t.Fatalf("Get inside bounds = %q,%v,%v", v, ok, err)
	}
}

func TestScanClipsToBounds(t *testing.T) {
	r := openRegion(t, []byte("k100"), []byte("k200"))
	for i := 100; i < 200; i++ {
		if err := r.Put([]byte(fmt.Sprintf("k%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	// A scan wider than the region must be clipped, not error.
	count := 0
	if err := r.Scan(nil, nil, func(k, v []byte) error { count++; return nil }); err != nil {
		t.Fatal(err)
	}
	if count != 100 {
		t.Fatalf("unbounded scan returned %d, want 100", count)
	}
	count = 0
	if err := r.Scan([]byte("k000"), []byte("k150"), func(k, v []byte) error { count++; return nil }); err != nil {
		t.Fatal(err)
	}
	if count != 50 {
		t.Fatalf("clipped scan returned %d, want 50", count)
	}
}

func TestSplit(t *testing.T) {
	parent := openRegion(t, nil, nil)
	const n = 100
	for i := 0; i < n; i++ {
		if err := parent.Put([]byte(fmt.Sprintf("k%03d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	split, err := parent.SplitPoint()
	if err != nil {
		t.Fatal(err)
	}
	if string(split) != "k050" {
		t.Fatalf("median split point = %q, want k050", split)
	}
	left, right, err := parent.Split(split, t.TempDir(), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer left.Close()
	defer right.Close()

	countRegion := func(r *Region) int {
		count := 0
		if err := r.Scan(nil, nil, func(k, v []byte) error { count++; return nil }); err != nil {
			t.Fatal(err)
		}
		return count
	}
	if l, rr := countRegion(left), countRegion(right); l != 50 || rr != 50 {
		t.Fatalf("split children hold %d + %d entries, want 50 + 50", l, rr)
	}
	// Children's bounds partition the parent's range.
	if string(left.Info().EndKey) != string(split) || string(right.Info().StartKey) != string(split) {
		t.Fatal("split children bounds do not meet at the split key")
	}
	// Every key readable from exactly its child.
	if _, ok, _ := left.Get([]byte("k010")); !ok {
		t.Fatal("left child missing k010")
	}
	if _, ok, _ := right.Get([]byte("k070")); !ok {
		t.Fatal("right child missing k070")
	}
	if _, _, err := left.Get([]byte("k070")); !errors.Is(err, ErrOutOfRange) {
		t.Fatal("left child accepted right-half key")
	}
}

func TestSplitRejectsBadKeyAndSmallRegion(t *testing.T) {
	r := openRegion(t, []byte("b"), []byte("m"))
	if _, _, err := r.Split([]byte("z"), t.TempDir(), testOpts()); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("split outside bounds: %v", err)
	}
	if _, err := r.SplitPoint(); !errors.Is(err, ErrTooSmall) {
		t.Fatalf("split point of empty region: %v", err)
	}
	r.Put([]byte("c"), []byte("v"))
	if _, err := r.SplitPoint(); !errors.Is(err, ErrTooSmall) {
		t.Fatalf("split point of single-key region: %v", err)
	}
}

func TestDestroy(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(Info{Table: "iot", Name: "gone"}, dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	r.Put([]byte("k"), []byte("v"))
	if err := r.Destroy(); err != nil {
		t.Fatal(err)
	}
	r2, err := Open(Info{Table: "iot", Name: "gone"}, dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if _, ok, _ := r2.Get([]byte("k")); ok {
		t.Fatal("destroyed region retained data")
	}
}

func TestApplyBatchBoundsCheckedBeforeApply(t *testing.T) {
	r := openRegion(t, []byte("b"), []byte("m"))
	good := []lsm.Write{
		{Key: []byte("banana"), Value: []byte("1")},
		{Key: []byte("grape"), Value: []byte("2")},
		{Key: []byte("fig"), Delete: true},
	}
	if err := r.ApplyBatch(telemetry.TSpan{}, good); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := r.Get([]byte("grape")); err != nil || !ok || string(v) != "2" {
		t.Fatalf("Get(grape) = %q,%v,%v", v, ok, err)
	}

	// One out-of-range key rejects the whole batch before anything applies.
	bad := []lsm.Write{
		{Key: []byte("cherry"), Value: []byte("in")},
		{Key: []byte("zebra"), Value: []byte("out")},
	}
	if err := r.ApplyBatch(telemetry.TSpan{}, bad); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("out-of-range batch: %v", err)
	}
	if _, ok, _ := r.Get([]byte("cherry")); ok {
		t.Fatal("rejected batch partially applied")
	}
}
