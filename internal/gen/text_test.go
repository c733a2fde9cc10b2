package gen

import (
	"bytes"
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
