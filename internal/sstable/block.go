package sstable

import (
	"bytes"
	"encoding/binary"
	"sort"
)

// blockBuilder assembles one block of sorted entries with shared-prefix key
// compression. Every restartInterval entries the full key is stored and its
// offset recorded in the restart array, enabling binary search.
//
// Entry layout:
//
//	shared-key-len   uvarint
//	unshared-key-len uvarint
//	value-len        uvarint
//	unshared key bytes
//	value bytes
//
// Block tail: restart offsets (uint32 each) followed by the restart count.
type blockBuilder struct {
	buf      []byte
	restarts []uint32
	counter  int
	lastKey  []byte
	entries  int
}

func (b *blockBuilder) reset() {
	b.buf = b.buf[:0]
	b.restarts = b.restarts[:0]
	b.counter = 0
	b.lastKey = b.lastKey[:0]
	b.entries = 0
}

func (b *blockBuilder) add(key, value []byte) {
	shared := 0
	if b.counter < restartInterval && len(b.restarts) > 0 {
		shared = sharedPrefixLen(b.lastKey, key)
	} else {
		b.restarts = append(b.restarts, uint32(len(b.buf)))
		b.counter = 0
	}
	b.buf = binary.AppendUvarint(b.buf, uint64(shared))
	b.buf = binary.AppendUvarint(b.buf, uint64(len(key)-shared))
	b.buf = binary.AppendUvarint(b.buf, uint64(len(value)))
	b.buf = append(b.buf, key[shared:]...)
	b.buf = append(b.buf, value...)
	b.lastKey = append(b.lastKey[:0], key...)
	b.counter++
	b.entries++
}

// estimatedSize reports the serialised size if finished now.
func (b *blockBuilder) estimatedSize() int {
	return len(b.buf) + 4*len(b.restarts) + 4
}

func (b *blockBuilder) empty() bool { return b.entries == 0 }

// finish appends the restart array and count, returning the complete block.
func (b *blockBuilder) finish() []byte {
	if len(b.restarts) == 0 {
		b.restarts = append(b.restarts, 0)
	}
	for _, r := range b.restarts {
		b.buf = binary.LittleEndian.AppendUint32(b.buf, r)
	}
	b.buf = binary.LittleEndian.AppendUint32(b.buf, uint32(len(b.restarts)))
	return b.buf
}

// block is a parsed read-only block.
type block struct {
	data     []byte // entry region only
	restarts []uint32
}

func parseBlock(raw []byte) (*block, error) {
	b := new(block)
	return b, b.parse(raw)
}

// parse points b at raw, reusing the restart array b already owns, so an
// iterator that parses block after block into one value allocates nothing.
func (b *block) parse(raw []byte) error {
	if len(raw) < 4 {
		return corruptf("block shorter than restart count")
	}
	n := binary.LittleEndian.Uint32(raw[len(raw)-4:])
	tail := 4 * (int(n) + 1)
	if n == 0 || tail > len(raw) {
		return corruptf("restart array (%d entries) exceeds block", n)
	}
	restartOff := len(raw) - tail
	restarts := b.restarts[:0]
	for i := 0; i < int(n); i++ {
		r := binary.LittleEndian.Uint32(raw[restartOff+4*i:])
		if int(r) >= restartOff && !(r == 0 && restartOff == 0) {
			return corruptf("restart offset %d beyond entries", r)
		}
		restarts = append(restarts, r)
	}
	b.data, b.restarts = raw[:restartOff], restarts
	return nil
}

// blockIter iterates over a parsed block.
type blockIter struct {
	b     *block
	off   int // offset of the NEXT entry to decode
	key   []byte
	value []byte
	valid bool
	err   error
}

func (b *block) iter() *blockIter { return &blockIter{b: b} }

// next decodes the entry at off. Returns false at end of block or on error.
func (it *blockIter) next() bool {
	if it.err != nil || it.off >= len(it.b.data) {
		it.valid = false
		return false
	}
	data := it.b.data[it.off:]
	shared, n1 := binary.Uvarint(data)
	if n1 <= 0 {
		it.fail("bad shared length")
		return false
	}
	unshared, n2 := binary.Uvarint(data[n1:])
	if n2 <= 0 {
		it.fail("bad unshared length")
		return false
	}
	vlen, n3 := binary.Uvarint(data[n1+n2:])
	if n3 <= 0 {
		it.fail("bad value length")
		return false
	}
	hdr := n1 + n2 + n3
	// Each length is bounded on its own first: their sum can wrap.
	if n := uint64(len(data)); unshared > n || vlen > n || n < uint64(hdr)+unshared+vlen {
		it.fail("entry overruns block")
		return false
	}
	if shared > uint64(len(it.key)) {
		it.fail("shared length exceeds previous key")
		return false
	}
	it.key = append(it.key[:shared], data[hdr:hdr+int(unshared)]...)
	it.value = data[hdr+int(unshared) : hdr+int(unshared)+int(vlen)]
	it.off += hdr + int(unshared) + int(vlen)
	it.valid = true
	return true
}

func (it *blockIter) fail(msg string) {
	it.err = corruptf("%s at offset %d", msg, it.off)
	it.valid = false
}

// seek positions the iterator at the first entry with key >= target.
func (it *blockIter) seek(target []byte) {
	// Binary search the restart points for the last restart whose full key
	// is <= target, then scan forward.
	idx := sort.Search(len(it.b.restarts), func(i int) bool {
		k, ok := it.b.keyAtRestart(int(it.b.restarts[i]))
		if !ok {
			return true // force the linear scan to surface the corruption
		}
		return bytes.Compare(k, target) > 0
	})
	start := 0
	if idx > 0 {
		start = int(it.b.restarts[idx-1])
	}
	it.off = start
	it.key = it.key[:0]
	it.valid = false
	for it.next() {
		if bytes.Compare(it.key, target) >= 0 {
			return
		}
	}
}

// seekToFirst positions the iterator at the first entry.
func (it *blockIter) seekToFirst() {
	it.off = 0
	it.key = it.key[:0]
	it.valid = false
	it.next()
}

// lastKey decodes the block's final key, walking only the entries after its
// last restart point.
func (b *block) lastKey() ([]byte, error) {
	it := b.iter()
	it.off = int(b.restarts[len(b.restarts)-1])
	for it.next() {
	}
	return it.key, it.err
}

// keyAtRestart decodes the full key stored at a restart offset.
func (b *block) keyAtRestart(off int) ([]byte, bool) {
	if off >= len(b.data) {
		return nil, false
	}
	data := b.data[off:]
	shared, n1 := binary.Uvarint(data)
	if n1 <= 0 || shared != 0 {
		return nil, false
	}
	unshared, n2 := binary.Uvarint(data[n1:])
	if n2 <= 0 {
		return nil, false
	}
	_, n3 := binary.Uvarint(data[n1+n2:])
	if n3 <= 0 {
		return nil, false
	}
	hdr := n1 + n2 + n3
	if n := uint64(len(data)); unshared > n || n < uint64(hdr)+unshared {
		return nil, false
	}
	return data[hdr : hdr+int(unshared)], true
}
