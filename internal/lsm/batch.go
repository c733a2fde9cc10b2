package lsm

import (
	"encoding/binary"
	"fmt"

	"tpcxiot/internal/telemetry"
)

// Batch is rows laid out, in one buffer, as the WAL record that logs them:
// Add copies a row in once, and Store.Apply appends the buffer to the WAL as
// one record and inserts its rows through applyRecord, the decoder replay
// runs. The buffer is append-only and never reused: every store a batch is
// applied to keeps slices of it in its memtable, so one batch may go to
// several stores at once, and a batch handed on must not be added to again.
// The zero Batch is empty.
//
// The buffer is a run of puts. A put is opPut, the key's and the value's
// lengths as uvarints, the key, tagValue and the value: the row the memtable
// stores is the put's tail, and puts delimit themselves.
type Batch struct {
	buf  []byte
	rows int
	size int64 // key and value bytes
}

// opPut is a put's first byte. Earlier layouts wrote 0 (a delete) and 1
// (a put without the value length); replay refuses both as ErrCorrupt.
const opPut = 2

// NewBatch returns an empty batch whose buffer holds capacity bytes of puts
// before Add has to grow it.
func NewBatch(capacity int) *Batch {
	return &Batch{buf: make([]byte, 0, capacity)}
}

// BatchOf takes buf, a run of puts as Bytes returns them, as a batch. The
// batch keeps buf, which the caller must not write again. A buffer that is
// not a run of whole puts is ErrCorrupt; an empty key is taken here and
// refused, with the whole batch, by Apply.
func BatchOf(buf []byte) (*Batch, error) {
	b := &Batch{buf: buf[:len(buf):len(buf)]}
	for rest := buf; len(rest) > 0; {
		key, stored, n, ok := splitRecord(rest)
		if !ok {
			return nil, fmt.Errorf("%w: batch of %d bytes, op %d at byte %d", ErrCorrupt, len(buf), rest[0], len(buf)-len(rest))
		}
		b.rows++
		b.size += int64(len(key) + len(stored) - 1)
		rest = rest[n:]
	}
	return b, nil
}

// putLen is the length of a put of a key and a value of these lengths.
func putLen(key, value int) int {
	return 2 + uvarintLen(uint64(key)) + uvarintLen(uint64(value)) + key + value
}

func uvarintLen(v uint64) int {
	n := 1
	for ; v >= 0x80; v >>= 7 {
		n++
	}
	return n
}

// Add appends a row, copying key and value; a full buffer is replaced by one
// of twice the size, and the old one is left as it is. An empty key is taken
// here and refused, with the whole batch, by Apply.
func (b *Batch) Add(key, value []byte) {
	if need := putLen(len(key), len(value)); cap(b.buf)-len(b.buf) < need {
		b.buf = append(make([]byte, 0, max(2*cap(b.buf), len(b.buf)+need)), b.buf...)
	}
	b.buf = append(b.buf, opPut)
	b.buf = binary.AppendUvarint(b.buf, uint64(len(key)))
	b.buf = binary.AppendUvarint(b.buf, uint64(len(value)))
	b.buf = append(append(append(b.buf, key...), tagValue), value...)
	b.rows++
	b.size += int64(len(key) + len(value))
}

// Len is the number of rows in the batch.
func (b *Batch) Len() int { return b.rows }

// Size is the batch's key and value bytes: its payload before any framing.
func (b *Batch) Size() int64 { return b.size }

// Bytes is the batch's buffer, the WAL record that logs it, which BatchOf
// takes back as the same batch. The caller must not write it.
func (b *Batch) Bytes() []byte { return b.buf }

// Each calls fn with every row's key and value in the order added. Both
// alias the batch, capacity-capped so that an append cannot write into it.
func (b *Batch) Each(fn func(key, value []byte)) {
	for buf := b.buf; len(buf) > 0; {
		key, stored, n, _ := splitRecord(buf) // Add wrote each put whole
		fn(key[:len(key):len(key)], stored[1:len(stored):len(stored)])
		buf = buf[n:]
	}
}

// splitRecord decodes the put at the head of buf: its key, the stored row
// (tagValue and the value) and its length n. ok is false unless buf starts
// with a whole put of this layout.
func splitRecord(buf []byte) (key, stored []byte, n int, ok bool) {
	if len(buf) == 0 || buf[0] != opPut {
		return nil, nil, 0, false
	}
	klen, kn := binary.Uvarint(buf[1:])
	if kn <= 0 {
		return nil, nil, 0, false
	}
	vlen, vn := binary.Uvarint(buf[1+kn:])
	head := 1 + kn + vn
	// The key, the tag and the value must fit in what follows the head.
	if rest := uint64(len(buf) - head); vn <= 0 || klen >= rest || vlen >= rest-klen {
		return nil, nil, 0, false
	}
	n = head + int(klen) + 1 + int(vlen)
	key, stored = buf[head:head+int(klen)], buf[head+int(klen):n]
	return key, stored, n, stored[0] == tagValue
}

// applyRecord inserts the puts of one WAL record, a batch, into the active
// memtable, which keeps slices of rec, each key and stored row (the put's
// tail), so rec must never be written again. Open's replay calls it for
// every record and Apply for the batch it logged, so live writes run the
// decoder recovery depends on; a WAL of one put per record replays as
// batches of one row. A record that is not a run of whole puts of non-empty
// keys is ErrCorrupt.
func (s *Store) applyRecord(rec []byte) error {
	for buf := rec; len(buf) > 0; {
		key, stored, n, ok := splitRecord(buf)
		if !ok || len(key) == 0 {
			return fmt.Errorf("%w: wal record of %d bytes, op %d at byte %d", ErrCorrupt, len(rec), buf[0], len(rec)-len(buf))
		}
		s.active.Put(key, stored)
		buf = buf[n:]
	}
	return nil
}

// Write is one row of a batch given as a slice: a put of Value under Key.
type Write struct {
	Key   []byte
	Value []byte
}

// Put stores value under key, durably per the WAL policy.
func (s *Store) Put(key, value []byte) error {
	return s.ApplyBatch([]Write{{Key: key, Value: value}})
}

// ApplyBatch is ApplyBatchTraced without a trace.
func (s *Store) ApplyBatch(writes []Write) error {
	return s.ApplyBatchTraced(telemetry.TSpan{}, writes)
}

// ApplyBatchTraced copies the writes into a batch of exactly their size and
// applies it: the store's memtable keeps that batch's bytes, so the caller
// may reuse the writes' slices once it returns.
func (s *Store) ApplyBatchTraced(parent telemetry.TSpan, writes []Write) error {
	n := 0
	for i := range writes {
		n += putLen(len(writes[i].Key), len(writes[i].Value))
	}
	b := NewBatch(n)
	for i := range writes {
		b.Add(writes[i].Key, writes[i].Value)
	}
	return s.Apply(parent, b)
}
