// Package bloom implements the block-level Bloom filters embedded in
// SSTables. The design follows the classic LevelDB/HBase approach: a filter
// is built once from the full key set of a table (or block), serialised
// alongside the data, and consulted on point reads to skip tables that
// cannot contain a key.
package bloom

import "encoding/binary"

// Filter is a serialised Bloom filter. The last byte stores the number of
// probe functions; the rest is the bit array.
type Filter []byte

// DefaultBitsPerKey gives a ~1% false-positive rate, the HBase default
// (ROWCOL filters use roughly 10 bits per entry).
const DefaultBitsPerKey = 10

// New builds a filter over the given keys using bitsPerKey bits per entry.
// A non-positive bitsPerKey falls back to DefaultBitsPerKey.
func New(keys [][]byte, bitsPerKey int) Filter {
	hashes := make([]uint64, len(keys))
	for i, key := range keys {
		hashes[i] = Hash(key)
	}
	return NewFromHashes(hashes, bitsPerKey)
}

// NewFromHashes builds the filter New would build over the keys whose Hash
// values are given, so a table writer can keep 8 bytes per key instead of
// the key until the key count — and with it the filter size — is known.
func NewFromHashes(hashes []uint64, bitsPerKey int) Filter {
	if bitsPerKey <= 0 {
		bitsPerKey = DefaultBitsPerKey
	}
	// k = bitsPerKey * ln2 probe functions minimises the false-positive
	// rate; clamp to a sane range.
	k := uint8(float64(bitsPerKey) * 0.69)
	if k < 1 {
		k = 1
	}
	if k > 30 {
		k = 30
	}

	nBits := len(hashes) * bitsPerKey
	if nBits < 64 {
		nBits = 64
	}
	nBytes := (nBits + 7) / 8
	nBits = nBytes * 8

	filter := make(Filter, nBytes+1)
	for _, h := range hashes {
		delta := h>>33 | h<<31 // rotate to derive the second hash
		for i := uint8(0); i < k; i++ {
			pos := h % uint64(nBits)
			filter[pos/8] |= 1 << (pos % 8)
			h += delta
		}
	}
	filter[nBytes] = k
	return filter
}

// MayContain reports whether the key may be present. False means the key is
// definitely absent; true means it is present with high probability.
func (f Filter) MayContain(key []byte) bool {
	if len(f) < 2 {
		return false
	}
	k := f[len(f)-1]
	if k > 30 {
		// Reserved: treat unknown encodings as "maybe" so newer formats
		// degrade to extra reads instead of lost keys.
		return true
	}
	nBits := uint64((len(f) - 1) * 8)
	h := Hash(key)
	delta := h>>33 | h<<31
	for i := uint8(0); i < k; i++ {
		pos := h % nBits
		if f[pos/8]&(1<<(pos%8)) == 0 {
			return false
		}
		h += delta
	}
	return true
}

// Hash is the filter's key hash: a 64-bit variant of the FNV-1a/Murmur-style
// mixing used by LevelDB's bloom hash. Its values are part of the on-disk
// format — a filter built from them is probed by MayContain of any version.
func Hash(b []byte) uint64 {
	const (
		seed = 0xbc9f1d34dcb77f2b
		m    = 0xc6a4a7935bd1e995
	)
	h := uint64(seed) ^ uint64(len(b))*m
	for len(b) >= 8 {
		k := binary.LittleEndian.Uint64(b)
		k *= m
		k ^= k >> 47
		k *= m
		h ^= k
		h *= m
		b = b[8:]
	}
	for i := len(b) - 1; i >= 0; i-- {
		h ^= uint64(b[i]) << (8 * uint(i))
	}
	h *= m
	h ^= h >> 47
	h *= m
	h ^= h >> 47
	return h
}
