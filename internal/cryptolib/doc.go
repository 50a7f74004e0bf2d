// Package cryptolib is a from-scratch implementation of the cryptographic
// primitives used by the FBS protocol and its baselines.
//
// The SIGCOMM '97 paper implements FBS on top of CryptoLib (Lacy, Mitchell
// and Schell, 1993), which provided DES, MD5, Diffie-Hellman and friends.
// This package plays the same role for this reproduction: it provides
//
//   - the DES block cipher with ECB, CBC, CFB and OFB modes (FIPS 46/81),
//     plus two- and three-key triple DES,
//   - the MD5 (RFC 1321) and SHA-1 (FIPS 180) message digests,
//   - HMAC (RFC 2104) and the paper's prefix MAC H(key | data),
//   - classic Diffie-Hellman key agreement over the Oakley MODP groups,
//   - the Blum-Blum-Shub quadratic residue generator (the cryptographically
//     strong — and deliberately slow — generator the paper cites as the
//     bottleneck of per-datagram keying),
//   - a linear congruential generator (the statistically random,
//     deliberately cheap confounder source the paper recommends),
//   - CRC-32, the randomising cache-index hash from Section 5.3, and
//   - the ChaCha20-Poly1305 AEAD (RFC 8439) behind the modern data-plane
//     suite.
//
// ChaCha20 has one assembly kernel, for amd64 (chacha20_amd64.s): it
// computes four blocks at once with SSE2 only — each XMM register holds
// one state word of all four blocks — and XORs them straight into the
// destination, so Seal and Open run their whole keystream, the
// Poly1305 one-time key included, through it. Every other GOARCH, and
// the purego build tag, use the scalar Go block function, which is
// also the reference the kernel is tested and fuzzed against.
//
// Everything is implemented from first principles on top of math/big and
// encoding/binary only, that kernel aside; the test suite cross-checks
// each primitive against the Go standard library and published test
// vectors.
package cryptolib
