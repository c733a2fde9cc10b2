package gen

// paddingAlphabet is the character set used for kvp padding text. It matches
// the printable-ASCII style of the TPCx-IoT kit's random field filler.
const paddingAlphabet = "abcdefghijklmnopqrstuvwxyz" +
	"ABCDEFGHIJKLMNOPQRSTUVWXYZ" +
	"0123456789 "

// Text fills dst with deterministic pseudo-random padding text drawn from
// the padding alphabet and returns dst. Eight characters are derived per
// RNG draw, so filling the ~960-byte padding field of a kvp costs about 120
// generator calls.
func Text(rng *RNG, dst []byte) []byte {
	const n = uint64(len(paddingAlphabet))
	i := 0
	for i+8 <= len(dst) {
		v := rng.Uint64()
		for j := 0; j < 8; j++ {
			dst[i] = paddingAlphabet[(v>>(8*uint(j)))%n]
			i++
		}
	}
	if i < len(dst) {
		v := rng.Uint64()
		for ; i < len(dst); i++ {
			dst[i] = paddingAlphabet[v%n]
			v /= n
		}
	}
	return dst
}
