//go:build !amd64 || purego

package cryptolib

// chachaXORStream XORs src with the keystream starting at the given
// block counter, writing into dst (dst and src may be the same slice).
// Without the amd64 kernel it is the scalar reference.
func chachaXORStream(key *[8]uint32, nonce *[3]uint32, counter uint32, dst, src []byte) {
	chachaXORStreamGeneric(key, nonce, counter, dst, src)
}
