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

// put applies one write as a batch of one.
func put(r *Region, key, value string) error {
	return r.ApplyBatch(telemetry.TSpan{}, []lsm.Write{{Key: []byte(key), Value: []byte(value)}})
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
	if err := put(r, "z", "v"); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("Put outside bounds: %v", err)
	}
	del := []lsm.Write{{Key: []byte("a"), Delete: true}}
	if err := r.ApplyBatch(telemetry.TSpan{}, del); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("Delete outside bounds: %v", err)
	}
	if err := put(r, "f", "v"); err != nil {
		t.Fatalf("Put inside bounds: %v", err)
	}
	v, ok, err := r.Store().Get([]byte("f"))
	if err != nil || !ok || string(v) != "v" {
		t.Fatalf("read inside bounds = %q,%v,%v", v, ok, err)
	}
}

func TestScanClipsToBounds(t *testing.T) {
	r := openRegion(t, []byte("k100"), []byte("k200"))
	for i := 100; i < 200; i++ {
		if err := put(r, fmt.Sprintf("k%d", i), "v"); err != nil {
			t.Fatal(err)
		}
	}
	count := func(lo, hi []byte) int {
		it, err := r.NewIterator(lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		defer it.Close()
		n := 0
		for ; it.Valid(); it.Next() {
			n++
		}
		if err := it.Error(); err != nil {
			t.Fatal(err)
		}
		return n
	}
	// A scan wider than the region must be clipped, not error.
	if n := count(nil, nil); n != 100 {
		t.Fatalf("unbounded scan returned %d, want 100", n)
	}
	if n := count([]byte("k000"), []byte("k150")); n != 50 {
		t.Fatalf("clipped scan returned %d, want 50", n)
	}
}

func TestDestroy(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(Info{Table: "iot", Name: "gone"}, dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := put(r, "k", "v"); err != nil {
		t.Fatal(err)
	}
	if err := r.Destroy(); err != nil {
		t.Fatal(err)
	}
	r2, err := Open(Info{Table: "iot", Name: "gone"}, dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if _, ok, _ := r2.Store().Get([]byte("k")); ok {
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
	if v, ok, err := r.Store().Get([]byte("grape")); err != nil || !ok || string(v) != "2" {
		t.Fatalf("read grape = %q,%v,%v", v, ok, err)
	}

	// One out-of-range key rejects the whole batch before anything applies.
	bad := []lsm.Write{
		{Key: []byte("cherry"), Value: []byte("in")},
		{Key: []byte("zebra"), Value: []byte("out")},
	}
	if err := r.ApplyBatch(telemetry.TSpan{}, bad); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("out-of-range batch: %v", err)
	}
	if _, ok, _ := r.Store().Get([]byte("cherry")); ok {
		t.Fatal("rejected batch partially applied")
	}
}
