package histogram

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"testing/quick"

	"tpcxiot/internal/gen"
)

func TestEmpty(t *testing.T) {
	s := New().Snapshot()
	if s.Count() != 0 || s.Min() != 0 || s.Max() != 0 || s.Mean() != 0 ||
		s.Stdev() != 0 || s.CV() != 0 || s.Percentile(50) != 0 {
		t.Fatalf("empty histogram not all-zero: %v", s)
	}
}

func TestExactStatistics(t *testing.T) {
	h := New()
	for _, v := range []int64{10, 20, 30, 40, 50} {
		h.Record(v)
	}
	s := h.Snapshot()
	if s.Count() != 5 || s.Min() != 10 || s.Max() != 50 {
		t.Fatalf("count/min/max wrong: %v", s)
	}
	if s.Mean() != 30 {
		t.Fatalf("mean = %v, want 30", s.Mean())
	}
	wantStdev := math.Sqrt(200) // population stdev of 10..50
	if math.Abs(s.Stdev()-wantStdev) > 1e-9 {
		t.Fatalf("stdev = %v, want %v", s.Stdev(), wantStdev)
	}
	if math.Abs(s.CV()-wantStdev/30) > 1e-9 {
		t.Fatalf("cv = %v", s.CV())
	}
	if s.Sum() != 150 {
		t.Fatalf("sum = %v", s.Sum())
	}
}

func TestNegativeClamped(t *testing.T) {
	h := New()
	h.Record(-5)
	s := h.Snapshot()
	if s.Min() != 0 || s.Max() != 0 || s.Count() != 1 {
		t.Fatalf("negative not clamped: %v", s)
	}
}

func TestPercentileAccuracy(t *testing.T) {
	h := New()
	// 1..10000: p50 ~ 5000, p95 ~ 9500, p99 ~ 9900.
	for i := int64(1); i <= 10000; i++ {
		h.Record(i)
	}
	s := h.Snapshot()
	cases := []struct {
		p    float64
		want int64
	}{
		{50, 5000}, {90, 9000}, {95, 9500}, {99, 9900}, {100, 10000},
	}
	for _, tc := range cases {
		got := s.Percentile(tc.p)
		if relErr := math.Abs(float64(got-tc.want)) / float64(tc.want); relErr > 0.02 {
			t.Fatalf("p%.0f = %d, want ~%d (err %.3f)", tc.p, got, tc.want, relErr)
		}
	}
	if s.Percentile(0) != s.Min() {
		t.Fatal("p0 should equal min")
	}
}

func TestPercentileMonotonic(t *testing.T) {
	h := New()
	rng := gen.NewRNG(1)
	for i := 0; i < 10000; i++ {
		h.Record(int64(rng.Uint64n(1_000_000)))
	}
	s := h.Snapshot()
	prev := int64(-1)
	for p := 1.0; p <= 100; p++ {
		v := s.Percentile(p)
		if v < prev {
			t.Fatalf("percentiles not monotonic at p%.0f: %d < %d", p, v, prev)
		}
		prev = v
	}
}

func TestBucketIndexMonotonicProperty(t *testing.T) {
	f := func(a, b int64) bool {
		if a < 0 {
			a = -a
		}
		if b < 0 {
			b = -b
		}
		if a > b {
			a, b = b, a
		}
		return bucketIndex(a) <= bucketIndex(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBucketBoundsContainValues(t *testing.T) {
	f := func(v int64) bool {
		if v < 0 {
			v = -v
		}
		idx := bucketIndex(v)
		return bucketUpperBound(idx) >= v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMerge(t *testing.T) {
	a, b := New(), New()
	for i := int64(1); i <= 100; i++ {
		a.Record(i)
	}
	for i := int64(101); i <= 200; i++ {
		b.Record(i)
	}
	a.Merge(b)
	s := a.Snapshot()
	if s.Count() != 200 || s.Min() != 1 || s.Max() != 200 {
		t.Fatalf("merge stats: %v", s)
	}
	if math.Abs(s.Mean()-100.5) > 1e-9 {
		t.Fatalf("merged mean = %v", s.Mean())
	}
}

func TestMergeEmpty(t *testing.T) {
	a := New()
	a.Record(42)
	a.Merge(New())
	s := a.Snapshot()
	if s.Count() != 1 || s.Min() != 42 {
		t.Fatalf("merge with empty corrupted stats: %v", s)
	}
}

func TestConcurrentRecord(t *testing.T) {
	h := New()
	var wg sync.WaitGroup
	const workers = 8
	const per = 10000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Record(int64(w*per + i))
			}
		}(w)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count() != workers*per {
		t.Fatalf("lost observations: %d/%d", s.Count(), workers*per)
	}
	if s.Min() != 0 || s.Max() != workers*per-1 {
		t.Fatalf("min/max wrong: %v", s)
	}
}

func TestCVGreaterThanOneForSkewedData(t *testing.T) {
	// Mirrors Figure 14: a mass of ~12 ms latencies with rare >1 s outliers
	// produces CV > 1.
	h := New()
	for i := 0; i < 10000; i++ {
		h.Record(12_000_000) // 12 ms in ns
	}
	for i := 0; i < 40; i++ {
		h.Record(1_500_000_000) // 1.5 s stalls
	}
	if cv := h.Snapshot().CV(); cv <= 1 {
		t.Fatalf("CV = %v, want > 1 for stall-dominated tail", cv)
	}
}

func TestStringDoesNotPanic(t *testing.T) {
	h := New()
	h.Record(5)
	if s := h.Snapshot().String(); s == "" {
		t.Fatal("empty String()")
	}
}

func TestStringRenderer(t *testing.T) {
	h := New()
	for i := int64(1); i <= 100; i++ {
		h.Record(i)
	}
	s := h.Snapshot()
	line := s.String()
	want := fmt.Sprintf("count=100 min=1 mean=50.5 p50=%d p95=%d p99=%d max=100",
		s.Percentile(50), s.Percentile(95), s.Percentile(99))
	if line != want {
		t.Fatalf("String() = %q, want %q", line, want)
	}
}

// TestConcurrentRecordSnapshotMerge hammers Record, Snapshot and Merge
// concurrently; run under -race this verifies the histogram's locking
// discipline, and afterwards no observation may be lost.
func TestConcurrentRecordSnapshotMerge(t *testing.T) {
	main := New()
	side := New()
	var wg sync.WaitGroup
	const writers = 4
	const per = 5000
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				main.Record(int64(w*per + i + 1))
				if i%8 == 0 {
					side.Record(int64(i + 1))
				}
			}
		}(w)
	}
	// Concurrent snapshotters: counts must be consistent (sum of buckets ==
	// count) in every observed snapshot.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s := main.Snapshot()
				var inBuckets int64
				for _, c := range s.state.buckets {
					inBuckets += c
				}
				if inBuckets != s.Count() {
					t.Errorf("torn snapshot: buckets sum %d, count %d", inBuckets, s.Count())
					return
				}
			}
		}()
	}
	// Concurrent merger pulling side into main while writers run.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			main.Merge(side)
		}
	}()
	wg.Wait()
	if got := main.Snapshot().Count(); got < writers*per {
		t.Fatalf("lost observations: %d < %d", got, writers*per)
	}
}

func TestSnapshotSub(t *testing.T) {
	h := New()
	for i := int64(1); i <= 1000; i++ {
		h.Record(i)
	}
	prev := h.Snapshot()
	for i := int64(100_001); i <= 101_000; i++ {
		h.Record(i)
	}
	delta := h.Snapshot().Sub(prev)
	if delta.Count() != 1000 {
		t.Fatalf("delta count = %d, want 1000", delta.Count())
	}
	if m := delta.Mean(); math.Abs(m-100_500.5) > 1 {
		t.Fatalf("delta mean = %v, want ~100500.5", m)
	}
	// Percentiles of the delta must reflect only the second batch.
	if p50 := delta.Percentile(50); p50 < 100_000 {
		t.Fatalf("delta p50 = %d, want >= 100000 (first batch leaked in)", p50)
	}
	// Min/Max are bucket approximations but must bracket the second batch.
	if delta.Min() < 100_001-2048 || delta.Max() > 102_000 {
		t.Fatalf("delta min/max = %d/%d out of range", delta.Min(), delta.Max())
	}
}

func TestSnapshotSubEmptyAndIdentity(t *testing.T) {
	h := New()
	h.Record(7)
	s := h.Snapshot()
	if d := s.Sub(s); d.Count() != 0 || d.Min() != 0 || d.Percentile(95) != 0 {
		t.Fatalf("identity delta not empty: %v", d)
	}
	if d := s.Sub(Snapshot{}); d.Count() != 1 || d.Percentile(50) != s.Percentile(50) {
		t.Fatalf("delta from zero snapshot should equal original: %v", d)
	}
}

func BenchmarkRecord(b *testing.B) {
	h := New()
	b.RunParallel(func(pb *testing.PB) {
		i := int64(0)
		for pb.Next() {
			h.Record(i % 1_000_000)
			i++
		}
	})
}
