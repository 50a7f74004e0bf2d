package cryptolib

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
)

// chachaKeyNonce expands seed bytes (zero-padded) into a key and nonce.
func chachaKeyNonce(seed []byte) (key [8]uint32, nonce [3]uint32) {
	var b [44]byte
	copy(b[:], seed)
	for i := range key {
		key[i] = binary.LittleEndian.Uint32(b[4*i:])
	}
	for i := range nonce {
		nonce[i] = binary.LittleEndian.Uint32(b[32+4*i:])
	}
	return key, nonce
}

// checkStreamMatchesGeneric runs chachaXORStream over msg three ways —
// into a separate buffer at dstOff, in place at dstOff, and over a
// copy of msg at srcOff — and fails unless each matches the scalar
// reference and leaves the bytes around the output untouched.
func checkStreamMatchesGeneric(t *testing.T, key *[8]uint32, nonce *[3]uint32, counter uint32, msg []byte, srcOff, dstOff int) {
	t.Helper()
	n := len(msg)
	want := make([]byte, n)
	chachaXORStreamGeneric(key, nonce, counter, want, msg)

	const guard = 0xA5
	src := make([]byte, srcOff+n)
	copy(src[srcOff:], msg)
	dst := bytes.Repeat([]byte{guard}, dstOff+n+32)
	chachaXORStream(key, nonce, counter, dst[dstOff:dstOff+n], src[srcOff:])
	if !bytes.Equal(dst[dstOff:dstOff+n], want) {
		t.Fatalf("counter=%#x n=%d src+%d dst+%d: keystream differs from the generic code", counter, n, srcOff, dstOff)
	}
	for i, b := range dst {
		if (i < dstOff || i >= dstOff+n) && b != guard {
			t.Fatalf("counter=%#x n=%d dst+%d: byte %d outside dst written", counter, n, dstOff, i)
		}
	}
	if !bytes.Equal(src[srcOff:], msg) {
		t.Fatalf("counter=%#x n=%d: src modified", counter, n)
	}

	inPlace := make([]byte, dstOff+n)
	copy(inPlace[dstOff:], msg)
	buf := inPlace[dstOff:]
	chachaXORStream(key, nonce, counter, buf, buf)
	if !bytes.Equal(buf, want) {
		t.Fatalf("counter=%#x n=%d at +%d: in-place keystream differs from the generic code", counter, n, dstOff)
	}
}

// TestChaChaKernelMatchesGeneric holds the build's keystream (the SSE2
// kernel on amd64) to the scalar reference over every length up to
// 1100 bytes, counters that wrap mod 2^32 within the stream, dst == src,
// and unaligned source and destination offsets.
func TestChaChaKernelMatchesGeneric(t *testing.T) {
	rng := NewLCGSeeded(0xC4AC4A)
	seed := make([]byte, 44)
	for i := range seed {
		seed[i] = byte(rng.Uint32())
	}
	key, nonce := chachaKeyNonce(seed)
	msg := make([]byte, 1100)
	for i := range msg {
		msg[i] = byte(rng.Uint32())
	}
	offs := [][2]int{{0, 0}, {1, 3}, {7, 0}, {0, 13}}
	for _, counter := range []uint32{0, 1, 0xFFFFFFFF, 0xFFFFFFFD, 0xFFFFFFF0} {
		for n := 0; n <= len(msg); n++ {
			for _, o := range offs {
				checkStreamMatchesGeneric(t, &key, &nonce, counter, msg[:n], o[0], o[1])
			}
		}
	}
}

// TestChaCha20Poly1305OpenWritesNothingOnFailure pins that Open
// verifies the tag before any plaintext reaches dst: the keystream's
// first chunk shares a kernel call with the one-time key, so a
// rejected datagram must leave dst's spare capacity as it was.
func TestChaCha20Poly1305OpenWritesNothingOnFailure(t *testing.T) {
	key := make([]byte, ChaChaKeySize)
	nonce := make([]byte, ChaChaNonceSize)
	a, err := NewChaCha20Poly1305(key)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 100, 192, 300, 1400} {
		sealed := a.Seal(nil, nonce, bytes.Repeat([]byte{'p'}, n), nil)
		sealed[len(sealed)-1] ^= 1
		dst := bytes.Repeat([]byte{0xEE}, n+Poly1305TagSize)
		if _, err := a.Open(dst[:0], nonce, sealed, nil); err != ErrAEADOpen {
			t.Fatalf("n=%d: Open of a bad tag = %v, want ErrAEADOpen", n, err)
		}
		if !bytes.Equal(dst, bytes.Repeat([]byte{0xEE}, n+Poly1305TagSize)) {
			t.Fatalf("n=%d: Open wrote into dst before rejecting the tag", n)
		}
	}
}

// FuzzChaChaKernel cross-checks the build's keystream against the
// scalar reference for arbitrary keys, nonces, counters (the 2^32 wrap
// included), lengths and buffer offsets.
func FuzzChaChaKernel(f *testing.F) {
	f.Add([]byte("key and nonce"), uint32(1), []byte("short"), uint8(0))
	f.Add([]byte{}, uint32(0xFFFFFFFE), bytes.Repeat([]byte{0x5A}, 700), uint8(0x31))
	f.Fuzz(func(t *testing.T, seed []byte, counter uint32, msg []byte, offs uint8) {
		if len(msg) > 4096 {
			msg = msg[:4096]
		}
		key, nonce := chachaKeyNonce(seed)
		checkStreamMatchesGeneric(t, &key, &nonce, counter, msg, int(offs&15), int(offs>>4))
	})
}

func BenchmarkChaCha20Poly1305(b *testing.B) {
	a, err := NewChaCha20Poly1305(make([]byte, ChaChaKeySize))
	if err != nil {
		b.Fatal(err)
	}
	nonce := make([]byte, ChaChaNonceSize)
	for _, n := range []int{64, 256, 1400} {
		pt := make([]byte, n)
		buf := make([]byte, 0, n+Poly1305TagSize)
		sealed := a.Seal(nil, nonce, pt, nil)
		b.Run(fmt.Sprintf("Seal/%d", n), func(b *testing.B) {
			b.SetBytes(int64(n))
			for i := 0; i < b.N; i++ {
				a.Seal(buf[:0], nonce, pt, nil)
			}
		})
		b.Run(fmt.Sprintf("Open/%d", n), func(b *testing.B) {
			b.SetBytes(int64(n))
			for i := 0; i < b.N; i++ {
				if _, err := a.Open(buf[:0], nonce, sealed, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkChaChaKeystream(b *testing.B) {
	var key [8]uint32
	var nonce [3]uint32
	buf := make([]byte, 256)
	b.Run("kernel", func(b *testing.B) {
		b.SetBytes(256)
		for i := 0; i < b.N; i++ {
			chachaXORStream(&key, &nonce, 1, buf, buf)
		}
	})
	b.Run("generic", func(b *testing.B) {
		b.SetBytes(256)
		for i := 0; i < b.N; i++ {
			chachaXORStreamGeneric(&key, &nonce, 1, buf, buf)
		}
	})
}
