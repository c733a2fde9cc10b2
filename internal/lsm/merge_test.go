package lsm

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// sliceIter is an in-memory source; failAt >= 0 makes it stop with an error
// once it reaches that position.
type sliceIter struct {
	keys, vals [][]byte
	pos        int
	failAt     int
	err        error
}

func (it *sliceIter) Valid() bool   { return it.err == nil && it.pos < len(it.keys) }
func (it *sliceIter) Key() []byte   { return it.keys[it.pos] }
func (it *sliceIter) Value() []byte { return it.vals[it.pos] }
func (it *sliceIter) Error() error  { return it.err }
func (it *sliceIter) Next() {
	it.pos++
	if it.pos == it.failAt {
		it.err = errors.New("source failed")
	}
}

// linearMerge is the two-pass O(n)-per-row merge the heap replaced, kept as
// the reference: smallest key wins, lowest source index on ties, shadowed
// duplicates skipped.
func linearMerge(sources []iterator, emit func(k, v []byte)) {
	for {
		cur := -1
		var best []byte
		for i, it := range sources {
			if it.Valid() && (cur == -1 || bytes.Compare(it.Key(), best) < 0) {
				cur, best = i, it.Key()
			}
		}
		if cur == -1 {
			return
		}
		emit(best, sources[cur].Value())
		for i, it := range sources {
			if i != cur {
				for it.Valid() && bytes.Equal(it.Key(), best) {
					it.Next()
				}
			}
		}
		sources[cur].Next()
	}
}

// randomSources builds n sorted sources over a small keyspace so duplicates
// across sources are common; values name their source.
func randomSources(rng *rand.Rand, n int) [][2][][]byte {
	out := make([][2][][]byte, n)
	for s := range out {
		picked := map[int]bool{}
		for i := rng.Intn(40); i > 0; i-- {
			picked[rng.Intn(60)] = true
		}
		ids := make([]int, 0, len(picked))
		for id := range picked {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for _, id := range ids {
			v := append([]byte{tagValue}, fmt.Sprintf("src%d", s)...)
			out[s][0] = append(out[s][0], []byte(fmt.Sprintf("k%03d", id)))
			out[s][1] = append(out[s][1], v)
		}
	}
	return out
}

func iteratorsOver(data [][2][][]byte) []iterator {
	its := make([]iterator, len(data))
	for i, d := range data {
		its[i] = &sliceIter{keys: d[0], vals: d[1], failAt: -1}
	}
	return its
}

// TestMergeHeapMatchesLinearMerge: for random sources — empty ones, heavy
// key overlap — the heap merge yields exactly the sequence of the
// linear merge it replaced.
func TestMergeHeapMatchesLinearMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for round := 0; round < 300; round++ {
		data := randomSources(rng, 1+rng.Intn(40))
		var want, got []string
		linearMerge(iteratorsOver(data), func(k, v []byte) {
			want = append(want, string(k)+"="+string(v))
		})
		m := newMergeIterator(iteratorsOver(data))
		for ; m.Valid(); m.Next() {
			got = append(got, string(m.Key())+"="+string(m.Value()))
		}
		if err := m.Error(); err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("round %d (%d sources):\n got %v\nwant %v", round, len(data), got, want)
		}
	}
}

// TestMergeHeapPropagatesSourceError: a source that fails mid-iteration —
// as the winner or while being skipped as a shadowed duplicate — ends the
// merge with its error instead of silently dropping its remaining rows.
func TestMergeHeapPropagatesSourceError(t *testing.T) {
	keys := func(ks ...string) (out [][]byte) {
		for _, k := range ks {
			out = append(out, []byte(k))
		}
		return out
	}
	vals := func(n int) [][]byte {
		out := make([][]byte, n)
		for i := range out {
			out[i] = []byte{tagValue}
		}
		return out
	}
	for _, failing := range []int{0, 1} {
		srcs := []iterator{
			&sliceIter{keys: keys("a", "b", "c"), vals: vals(3), failAt: -1},
			&sliceIter{keys: keys("a", "b", "d"), vals: vals(3), failAt: -1},
		}
		srcs[failing].(*sliceIter).failAt = 2
		m := newMergeIterator(srcs)
		n := 0
		for ; m.Valid(); m.Next() {
			n++
		}
		if m.Error() == nil {
			t.Fatalf("source %d failed but the merge reported no error after %d rows", failing, n)
		}
		if n > 2 {
			t.Fatalf("merge yielded %d rows past a failed source", n)
		}
	}
}
