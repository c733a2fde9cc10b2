package gen

// paddingAlphabet is the character set used for kvp padding text. It matches
// the printable-ASCII style of the TPCx-IoT kit's random field filler.
const paddingAlphabet = "abcdefghijklmnopqrstuvwxyz" +
	"ABCDEFGHIJKLMNOPQRSTUVWXYZ" +
	"0123456789 "

// residue[4r+b] is (4r+b) mod 63 for every residue r < 63 and byte b. Since
// 256 ≡ 4 (mod 63), (v>>8j) mod 63 is residue[4·((v>>8(j+1)) mod 63) + byte j
// of v]: one lookup per character, from the top byte down, instead of a
// 64-bit division.
var residue = func() (t [4*62 + 256]uint8) {
	for i := range t {
		t[i] = uint8(i % len(paddingAlphabet))
	}
	return t
}()

// Text fills dst with deterministic pseudo-random padding text drawn from
// the padding alphabet and returns dst. Eight characters are derived per
// RNG draw, so filling the ~960-byte padding field of a kvp costs about 120
// generator calls. Character j of a draw v is paddingAlphabet[(v>>8j) % 63];
// a short tail takes base-63 digits of one more draw.
func Text(rng *RNG, dst []byte) []byte {
	i := 0
	for ; i+8 <= len(dst); i += 8 {
		v := rng.Uint64()
		d := dst[i : i+8 : i+8]
		r := uint(residue[v>>56])
		d[7] = paddingAlphabet[r]
		r = uint(residue[4*r+uint(v>>48&0xff)])
		d[6] = paddingAlphabet[r]
		r = uint(residue[4*r+uint(v>>40&0xff)])
		d[5] = paddingAlphabet[r]
		r = uint(residue[4*r+uint(v>>32&0xff)])
		d[4] = paddingAlphabet[r]
		r = uint(residue[4*r+uint(v>>24&0xff)])
		d[3] = paddingAlphabet[r]
		r = uint(residue[4*r+uint(v>>16&0xff)])
		d[2] = paddingAlphabet[r]
		r = uint(residue[4*r+uint(v>>8&0xff)])
		d[1] = paddingAlphabet[r]
		r = uint(residue[4*r+uint(v&0xff)])
		d[0] = paddingAlphabet[r]
	}
	if i < len(dst) {
		const n = uint64(len(paddingAlphabet))
		v := rng.Uint64()
		for ; i < len(dst); i++ {
			dst[i] = paddingAlphabet[v%n]
			v /= n
		}
	}
	return dst
}
