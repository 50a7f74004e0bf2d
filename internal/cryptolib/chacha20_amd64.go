//go:build amd64 && !purego

package cryptolib

// chachaXOR256 XORs src into dst with the keystream of blocks counter,
// counter+1, ... (wrapping mod 2^32), four blocks per pass of the SSE2
// kernel in chacha20_amd64.s. len(src) must be a multiple of 256 and
// len(dst) at least len(src); dst may be src, and neither needs any
// alignment.
//
//go:noescape
func chachaXOR256(key *[8]uint32, nonce *[3]uint32, counter uint32, dst, src []byte)

// chachaXORStream XORs src with the keystream starting at the given
// block counter, writing into dst (dst and src may be the same slice).
// Whole 256-byte chunks go straight through the kernel; a shorter tail
// is XORed in a stack buffer that the kernel fills.
func chachaXORStream(key *[8]uint32, nonce *[3]uint32, counter uint32, dst, src []byte) {
	full := len(src) &^ 255
	if full > 0 {
		chachaXOR256(key, nonce, counter, dst[:full], src[:full])
		counter += uint32(full / 64)
	}
	if tail := src[full:]; len(tail) > 0 {
		var buf [256]byte
		copy(buf[:], tail)
		chachaXOR256(key, nonce, counter, buf[:], buf[:])
		copy(dst[full:], buf[:len(tail)])
	}
}
