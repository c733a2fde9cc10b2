package kvp

import (
	"bytes"
	"errors"
	"math"
	"strconv"
	"testing"
)

// FuzzKeyCodec feeds arbitrary bytes to the bare decoders, as a key and as
// a value. DecodeKey, TimestampOf and SeriesOf never panic and agree: all
// three succeed or all fail, on the same timestamp and the series prefix in
// front of the 8 timestamp bytes, and a decoded key re-encodes to the
// input. DecodeValue and ReadingOf agree the same way on the reading, and a
// decoded value re-encodes to the input.
func FuzzKeyCodec(f *testing.F) {
	for _, seed := range [][]byte{
		Key{Substation: "PS-0042", Sensor: "pmu-17", Timestamp: 1514764800123}.Encode(),
		Key{Timestamp: -1}.Encode(),
		append([]byte("sub\x00sen\x00"), 0, 0, 0, 0, 0, 0, 0),
		append([]byte("sub\x00sen\x00"), make([]byte, 9)...),
		[]byte("sub\x00sensoronly"),
		Value{Reading: "230.17", Unit: "volt", Padding: []byte("pad")}.Encode(),
		Value{Reading: "NaN", Unit: "volt"}.Encode(),
		Value{Reading: "hot", Unit: "volt"}.Encode(),
		{4, 30, '1', '.', '2', '5'},
		{9, 0, '1'},
		nil,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		checkKeyCodec(t, b)
		checkValueCodec(t, b)
	})
}

func checkKeyCodec(t *testing.T, b []byte) {
	k, err := DecodeKey(b)
	ts, tsOK := TimestampOf(b)
	series, seriesOK := SeriesOf(b)
	if (err == nil) != tsOK || tsOK != seriesOK {
		t.Fatalf("key %q: DecodeKey %v, TimestampOf ok=%v, SeriesOf ok=%v", b, err, tsOK, seriesOK)
	}
	if err != nil {
		if !errors.Is(err, ErrBadKey) {
			t.Fatalf("key %q: %v, want ErrBadKey", b, err)
		}
		return
	}
	if ts != k.Timestamp {
		t.Fatalf("key %q: TimestampOf %d, DecodeKey %d", b, ts, k.Timestamp)
	}
	if !bytes.Equal(series, b[:len(b)-8]) || !bytes.Equal(series, SensorPrefix(k.Substation, k.Sensor)) {
		t.Fatalf("key %q: series %q", b, series)
	}
	if enc := k.Encode(); !bytes.Equal(enc, b) {
		t.Fatalf("key %q decodes to %+v, which encodes to %q", b, k, enc)
	}
}

func checkValueCodec(t *testing.T, b []byte) {
	v, err := DecodeValue(b)
	r, rerr := ReadingOf(b)
	if rerr != nil && !errors.Is(rerr, ErrBadValue) {
		t.Fatalf("value %q: ReadingOf %v, want ErrBadValue", b, rerr)
	}
	if err != nil {
		if !errors.Is(err, ErrBadValue) {
			t.Fatalf("value %q: %v, want ErrBadValue", b, err)
		}
		// ReadingOf needs only the header and the reading; where those are
		// short it fails too.
		if rerr == nil && (len(b) < valueHeaderLen || valueHeaderLen+int(b[0]) > len(b)) {
			t.Fatalf("value %q: ReadingOf %v past a short reading", b, r)
		}
		return
	}
	want, perr := strconv.ParseFloat(v.Reading, 64)
	if (perr == nil) != (rerr == nil) || perr == nil && math.Float64bits(r) != math.Float64bits(want) {
		t.Fatalf("value %q: ReadingOf %v, %v; reading %q parses to %v, %v", b, r, rerr, v.Reading, want, perr)
	}
	if enc := v.Encode(); !bytes.Equal(enc, b) {
		t.Fatalf("value %q decodes to %+v, which encodes to %q", b, v, enc)
	}
}
