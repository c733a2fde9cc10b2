// Package histogram provides latency and throughput statistics for the
// benchmark's measurement layer: exact count/min/max/mean/standard
// deviation plus approximate percentiles from log-scale buckets.
//
// The paper's evaluation reports exactly these statistics — Figure 14 shows
// min/max/avg query latency with the coefficient of variation printed above
// each bar and discusses 95th percentiles — so the histogram exposes each
// of them directly.
package histogram

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
)

// subBucketBits fixes the per-power-of-two resolution: 2^subBucketBits
// linear sub-buckets per binary order of magnitude (~1.5% relative error
// with 6 bits).
const subBucketBits = 6

const (
	subBuckets  = 1 << subBucketBits
	groupCount  = 64 - subBucketBits
	bucketCount = groupCount * subBuckets
)

// Histogram accumulates non-negative int64 observations (typically latency
// in nanoseconds). Safe for concurrent use; for hot paths, keep one
// histogram per worker and Merge at the end.
type Histogram struct {
	mu      sync.Mutex
	buckets [bucketCount]int64
	count   int64
	sum     float64
	sumSq   float64
	min     int64
	max     int64
}

// New returns an empty histogram.
func New() *Histogram {
	return &Histogram{min: math.MaxInt64}
}

// bucketIndex maps a value to its bucket.
func bucketIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	u := uint64(v)
	if u < subBuckets {
		return int(u)
	}
	// Highest set bit selects the group; the next subBucketBits bits select
	// the linear sub-bucket within it.
	msb := bits.Len64(u) - 1
	group := msb - subBucketBits + 1
	sub := (u >> (uint(msb) - subBucketBits)) & (subBuckets - 1)
	idx := group*subBuckets + int(sub)
	if idx >= bucketCount {
		idx = bucketCount - 1
	}
	return idx
}

// bucketLowerBound returns the smallest value that maps to bucket i.
func bucketLowerBound(i int) int64 {
	if i < subBuckets {
		return int64(i)
	}
	group := i / subBuckets
	sub := uint64(i % subBuckets)
	msb := group + subBucketBits - 1
	base := uint64(1) << uint(msb)
	step := base >> subBucketBits
	v := base + sub*step
	if v > math.MaxInt64 {
		return math.MaxInt64
	}
	return int64(v)
}

// bucketUpperBound returns a representative (upper-bound) value for bucket i.
func bucketUpperBound(i int) int64 {
	if i < subBuckets {
		return int64(i)
	}
	group := i / subBuckets
	sub := uint64(i % subBuckets)
	msb := group + subBucketBits - 1
	base := uint64(1) << uint(msb)
	step := base >> subBucketBits
	v := base + (sub+1)*step - 1
	if v > math.MaxInt64 {
		return math.MaxInt64
	}
	return int64(v)
}

// Record adds one observation. Negative values are clamped to zero.
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	h.mu.Lock()
	h.buckets[bucketIndex(v)]++
	h.count++
	f := float64(v)
	h.sum += f
	h.sumSq += f * f
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.mu.Unlock()
}

// Merge adds all observations of other into h.
func (h *Histogram) Merge(other *Histogram) {
	other.mu.Lock()
	var o snapshotState
	o.load(other)
	other.mu.Unlock()

	h.mu.Lock()
	for i, c := range o.buckets {
		h.buckets[i] += c
	}
	h.count += o.count
	h.sum += o.sum
	h.sumSq += o.sumSq
	if o.count > 0 {
		if o.min < h.min {
			h.min = o.min
		}
		if o.max > h.max {
			h.max = o.max
		}
	}
	h.mu.Unlock()
}

type snapshotState struct {
	buckets [bucketCount]int64
	count   int64
	sum     float64
	sumSq   float64
	min     int64
	max     int64
}

func (s *snapshotState) load(h *Histogram) {
	s.buckets = h.buckets
	s.count = h.count
	s.sum = h.sum
	s.sumSq = h.sumSq
	s.min = h.min
	s.max = h.max
}

// Snapshot is an immutable view of a histogram's statistics.
type Snapshot struct {
	state snapshotState
}

// Snapshot captures the current statistics.
func (h *Histogram) Snapshot() Snapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	var s Snapshot
	s.state.load(h)
	return s
}

// Count returns the number of observations.
func (s Snapshot) Count() int64 { return s.state.count }

// Min returns the smallest observation, or 0 when empty.
func (s Snapshot) Min() int64 {
	if s.state.count == 0 {
		return 0
	}
	return s.state.min
}

// Max returns the largest observation, or 0 when empty.
func (s Snapshot) Max() int64 { return s.state.max }

// Mean returns the arithmetic mean, or 0 when empty.
func (s Snapshot) Mean() float64 {
	if s.state.count == 0 {
		return 0
	}
	return s.state.sum / float64(s.state.count)
}

// Stdev returns the population standard deviation, or 0 when empty.
func (s Snapshot) Stdev() float64 {
	n := float64(s.state.count)
	if n == 0 {
		return 0
	}
	mean := s.state.sum / n
	v := s.state.sumSq/n - mean*mean
	if v < 0 {
		v = 0 // guard tiny negative from floating-point cancellation
	}
	return math.Sqrt(v)
}

// CV returns the coefficient of variation (stdev/mean), the statistic the
// paper prints above each bar of Figure 14. Returns 0 when the mean is 0.
func (s Snapshot) CV() float64 {
	m := s.Mean()
	if m == 0 {
		return 0
	}
	return s.Stdev() / m
}

// Percentile returns an upper bound on the p-th percentile (0 < p <= 100).
// Resolution is ~1.5%. Returns 0 when empty.
func (s Snapshot) Percentile(p float64) int64 {
	if s.state.count == 0 {
		return 0
	}
	if p <= 0 {
		return s.Min()
	}
	if p >= 100 {
		return s.Max()
	}
	rank := int64(math.Ceil(p / 100 * float64(s.state.count)))
	var seen int64
	for i, c := range s.state.buckets {
		seen += c
		if seen >= rank {
			ub := bucketUpperBound(i)
			if ub > s.state.max {
				return s.state.max
			}
			return ub
		}
	}
	return s.state.max
}

// Sum returns the sum of all observations.
func (s Snapshot) Sum() float64 { return s.state.sum }

// MergeSnapshots combines immutable snapshots into one, as if all their
// observations had been recorded into a single histogram. Used to aggregate
// per-driver-instance measurements into system-wide statistics.
func MergeSnapshots(snaps ...Snapshot) Snapshot {
	var out Snapshot
	out.state.min = math.MaxInt64
	for _, s := range snaps {
		if s.state.count == 0 {
			continue
		}
		for i, c := range s.state.buckets {
			out.state.buckets[i] += c
		}
		out.state.count += s.state.count
		out.state.sum += s.state.sum
		out.state.sumSq += s.state.sumSq
		if s.state.min < out.state.min {
			out.state.min = s.state.min
		}
		if s.state.max > out.state.max {
			out.state.max = s.state.max
		}
	}
	return out
}

// Sub returns the distribution of the observations recorded after prev was
// taken, assuming prev is an earlier snapshot of the same (or a merged)
// histogram. This is how the telemetry ticker converts cumulative
// distributions into per-interval ones. Count, mean, standard deviation and
// percentiles of the difference are exact to bucket resolution; Min and Max
// are bucket-bound approximations because the extremes of the interval are
// not recoverable from cumulative state.
func (s Snapshot) Sub(prev Snapshot) Snapshot {
	var out Snapshot
	out.state.min = math.MaxInt64
	if s.state.count <= prev.state.count {
		return out
	}
	first, last := -1, -1
	for i := range s.state.buckets {
		d := s.state.buckets[i] - prev.state.buckets[i]
		if d < 0 {
			d = 0
		}
		out.state.buckets[i] = d
		if d > 0 {
			if first < 0 {
				first = i
			}
			last = i
		}
	}
	out.state.count = s.state.count - prev.state.count
	out.state.sum = s.state.sum - prev.state.sum
	out.state.sumSq = s.state.sumSq - prev.state.sumSq
	if out.state.sum < 0 {
		out.state.sum = 0
	}
	if out.state.sumSq < 0 {
		out.state.sumSq = 0
	}
	if first >= 0 {
		out.state.min = bucketLowerBound(first)
		if out.state.min < s.state.min {
			out.state.min = s.state.min
		}
		out.state.max = bucketUpperBound(last)
		if out.state.max > s.state.max {
			out.state.max = s.state.max
		}
	}
	return out
}

// String summarises the distribution on one line:
// count/min/mean/p50/p95/p99/max. Values are in the recorded unit
// (nanoseconds throughout the kit).
func (s Snapshot) String() string {
	return fmt.Sprintf("count=%d min=%d mean=%.1f p50=%d p95=%d p99=%d max=%d",
		s.Count(), s.Min(), s.Mean(),
		s.Percentile(50), s.Percentile(95), s.Percentile(99), s.Max())
}
