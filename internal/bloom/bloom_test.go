package bloom

import (
	"crypto/sha256"
	"fmt"
	"testing"
	"testing/quick"
)

func keysN(n int) [][]byte {
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%08d", i))
	}
	return keys
}

func TestNoFalseNegatives(t *testing.T) {
	keys := keysN(10000)
	f := New(keys, DefaultBitsPerKey)
	for _, k := range keys {
		if !f.MayContain(k) {
			t.Fatalf("false negative for %q", k)
		}
	}
}

func TestFalsePositiveRate(t *testing.T) {
	keys := keysN(10000)
	f := New(keys, DefaultBitsPerKey)
	fp := 0
	const probes = 10000
	for i := 0; i < probes; i++ {
		if f.MayContain([]byte(fmt.Sprintf("absent-%08d", i))) {
			fp++
		}
	}
	if rate := float64(fp) / probes; rate > 0.03 {
		t.Fatalf("false-positive rate %.4f too high for 10 bits/key", rate)
	}
}

func TestEmptyKeySet(t *testing.T) {
	f := New(nil, DefaultBitsPerKey)
	if f.MayContain([]byte("anything")) {
		t.Fatal("empty filter claimed to contain a key")
	}
}

func TestShortFilterIsSafe(t *testing.T) {
	if Filter(nil).MayContain([]byte("x")) {
		t.Fatal("nil filter must report absent")
	}
	if (Filter{1}).MayContain([]byte("x")) {
		t.Fatal("1-byte filter must report absent")
	}
}

func TestUnknownEncodingDegradesToMaybe(t *testing.T) {
	f := make(Filter, 9)
	f[8] = 31 // k > 30: future encoding
	if !f.MayContain([]byte("x")) {
		t.Fatal("unknown encoding must degrade to maybe, not lose keys")
	}
}

func TestDefaultBitsFallback(t *testing.T) {
	keys := keysN(100)
	a := New(keys, 0)
	b := New(keys, DefaultBitsPerKey)
	if len(a) != len(b) {
		t.Fatalf("fallback filter size %d != default size %d", len(a), len(b))
	}
}

func TestNoFalseNegativesProperty(t *testing.T) {
	f := func(raw [][]byte) bool {
		if len(raw) == 0 {
			return true
		}
		filter := New(raw, DefaultBitsPerKey)
		for _, k := range raw {
			if !filter.MayContain(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHashDistribution(t *testing.T) {
	// Adjacent keys should not collide in the low bits used for placement.
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		h := Hash([]byte(fmt.Sprintf("k%d", i)))
		if seen[h] {
			t.Fatalf("hash collision at key k%d", i)
		}
		seen[h] = true
	}
}

func BenchmarkMayContain(b *testing.B) {
	keys := keysN(100000)
	f := New(keys, DefaultBitsPerKey)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.MayContain(keys[i%len(keys)])
	}
}

// TestFilterBytesUnchanged pins the serialised filter: the digests are of
// the filters the pre-hash-on-append New built for the same key sets. Tables
// on disk carry those bytes, so New and NewFromHashes must keep producing
// them bit for bit.
func TestFilterBytesUnchanged(t *testing.T) {
	for _, c := range []struct {
		n, bits, size int
		digest        string
	}{
		{0, 10, 9, "0637b6e1ea2b5ac884638aa33bf61a5919108d463e4cf3788535349ae0ac8f13"},
		{1, 10, 9, "cb0e2885b01bef5b0ba5859b8a7ed2d415aef47bc7d82e89d740d63a00b91ff5"},
		{10000, 10, 12501, "40ea04a99f67fbd347e0c1dfd49b7126da95ee6f2ef2750caac1604fe868b112"},
		{777, 4, 390, "2960d36879e8d648c06dbbbe54886555f9a4e09c2319c97718f58442257bbddf"},
		{5000, 0, 6251, "b40c84aa59cedb03eaaa8b965ab591355e5ef3a22f7e95862e7f777eeb6003c3"},
	} {
		keys := keysN(c.n)
		hashes := make([]uint64, len(keys))
		for i, k := range keys {
			hashes[i] = Hash(k)
		}
		for name, f := range map[string]Filter{"New": New(keys, c.bits), "NewFromHashes": NewFromHashes(hashes, c.bits)} {
			if got := fmt.Sprintf("%x", sha256.Sum256(f)); len(f) != c.size || got != c.digest {
				t.Errorf("%s(%d keys, %d bits): %d bytes, digest %s; want %d bytes, %s",
					name, c.n, c.bits, len(f), got, c.size, c.digest)
			}
		}
	}
}
