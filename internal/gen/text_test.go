package gen

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"strings"
	"testing"
)

func TestTextAlphabetAndLength(t *testing.T) {
	r := NewRNG(10)
	for _, n := range []int{0, 1, 7, 8, 9, 63, 955, 970} {
		buf := Text(r, make([]byte, n))
		if len(buf) != n {
			t.Fatalf("Text length %d, want %d", len(buf), n)
		}
		for i, b := range buf {
			if !strings.ContainsRune(paddingAlphabet, rune(b)) {
				t.Fatalf("byte %q at %d outside alphabet", b, i)
			}
		}
	}
}

func TestTextDeterministic(t *testing.T) {
	a := Text(NewRNG(11), make([]byte, 256))
	b := Text(NewRNG(11), make([]byte, 256))
	if !bytes.Equal(a, b) {
		t.Fatal("Text is not deterministic for equal seeds")
	}
}

// textGolden is textGoldenDigest as computed with a per-byte `% 63` Text.
// Every kvp's padding, and so every benchmark input digest, depends on
// Text's bytes and on how many draws it takes.
const textGolden = "76faaa6b2f2ab4fc5aa5e0ac86777d1f12caf2efd0ce315a2d3d2eec88ca7e28"

// textGoldenDigest hashes Text's output for several seeds and lengths, each
// followed by the RNG's next draw, so a different draw count shows too.
func textGoldenDigest() string {
	h := sha256.New()
	var draw [8]byte
	for _, seed := range []uint64{0, 1, 11, 0xdeadbeef} {
		r := NewRNG(seed)
		for _, n := range []int{0, 1, 7, 8, 9, 63, 960, 1000} {
			h.Write(Text(r, make([]byte, n)))
			binary.LittleEndian.PutUint64(draw[:], r.Uint64())
			h.Write(draw[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestTextGolden(t *testing.T) {
	if got := textGoldenDigest(); got != textGolden {
		t.Fatalf("Text output or draw count changed: digest %s, want %s", got, textGolden)
	}
}

func BenchmarkText(b *testing.B) {
	r := NewRNG(1)
	buf := make([]byte, 960)
	b.SetBytes(int64(len(buf)))
	for i := 0; i < b.N; i++ {
		Text(r, buf)
	}
}
