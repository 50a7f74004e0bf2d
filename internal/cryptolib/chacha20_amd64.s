//go:build amd64 && !purego

#include "textflag.h"

// chachaXOR256 (see chacha20_amd64.go): four ChaCha20 blocks per pass,
// SSE2 only. Register Xi holds state word i of all four blocks (lane j
// is block counter+j), so every quarter round runs on four blocks at
// once. Sixteen words and the rotation temporary need seventeen
// registers, so word 15 lives in a stack slot. It trades places with
// word 12 in X12 twice per double round: the quarter rounds through
// word 15 run while word 12, which none of them touches, waits in the
// slot.

// Stack scratch, addressed through R8 rounded up to 16 bytes so the
// SSE2 memory operands are aligned: the sixteen input-state vectors,
// then the word-15 slot and a spill slot for the finished word 14.
#define STATE 0
#define SLOT15 256
#define SPILL14 272

DATA chachaSigma<>+0x00(SB)/4, $0x61707865
DATA chachaSigma<>+0x04(SB)/4, $0x3320646e
DATA chachaSigma<>+0x08(SB)/4, $0x79622d32
DATA chachaSigma<>+0x0c(SB)/4, $0x6b206574
GLOBL chachaSigma<>(SB), (NOPTR+RODATA), $16

DATA chachaLanes<>+0x00(SB)/4, $0
DATA chachaLanes<>+0x04(SB)/4, $1
DATA chachaLanes<>+0x08(SB)/4, $2
DATA chachaLanes<>+0x0c(SB)/4, $3
GLOBL chachaLanes<>(SB), (NOPTR+RODATA), $16

DATA chachaFour<>+0x00(SB)/4, $4
DATA chachaFour<>+0x04(SB)/4, $4
DATA chachaFour<>+0x08(SB)/4, $4
DATA chachaFour<>+0x0c(SB)/4, $4
GLOBL chachaFour<>(SB), (NOPTR+RODATA), $16

// ROTL rotates each 32-bit lane of r left by n, with t as scratch.
#define ROTL(n, r, t) \
	MOVO  r, t;      \
	PSLLL $n, t;     \
	PSRLL $(32-n), r; \
	PXOR  t, r

// QR is the ChaCha quarter round on four blocks; rotating by 16 swaps
// the 16-bit halves of every lane with two word shuffles.
#define QR(a, b, c, d, t) \
	PADDL   b, a;         \
	PXOR    a, d;         \
	PSHUFLW $0xb1, d, d;  \
	PSHUFHW $0xb1, d, d;  \
	PADDL   d, c;         \
	PXOR    c, b;         \
	ROTL(12, b, t);       \
	PADDL   b, a;         \
	PXOR    a, d;         \
	ROTL(8, d, t);        \
	PADDL   d, c;         \
	PXOR    c, b;         \
	ROTL(7, b, t)

// SWAP15 exchanges X12 with the word-15 slot.
#define SWAP15 \
	MOVO SLOT15(R8), X15; \
	MOVO X12, SLOT15(R8); \
	MOVO X15, X12

// OUT transposes words 4g..4g+3 (a, b, c, d: one block per lane) into
// per-block order and XORs them into dst at byte off = 16g of each of
// the four 64-byte blocks. t and l are scratch; a..d are clobbered.
#define OUT(a, b, c, d, t, l, off) \
	MOVO       a, t;            \
	PUNPCKLLQ  b, a;            \
	PUNPCKHLQ  b, t;            \
	MOVO       c, b;            \
	PUNPCKLLQ  d, c;            \
	PUNPCKHLQ  d, b;            \
	MOVO       a, d;            \
	PUNPCKLQDQ c, a;            \
	PUNPCKHQDQ c, d;            \
	MOVO       t, c;            \
	PUNPCKLQDQ b, t;            \
	PUNPCKHQDQ b, c;            \
	MOVOU      off(SI), l;      \
	PXOR       l, a;            \
	MOVOU      a, off(DI);      \
	MOVOU      (off+64)(SI), l; \
	PXOR       l, d;            \
	MOVOU      d, (off+64)(DI); \
	MOVOU      (off+128)(SI), l; \
	PXOR       l, t;            \
	MOVOU      t, (off+128)(DI); \
	MOVOU      (off+192)(SI), l; \
	PXOR       l, c;            \
	MOVOU      c, (off+192)(DI)

// func chachaXOR256(key *[8]uint32, nonce *[3]uint32, counter uint32, dst, src []byte)
TEXT ·chachaXOR256(SB), 0, $304-72
	MOVQ key+0(FP), AX
	MOVQ nonce+8(FP), BX
	MOVL counter+16(FP), DX
	MOVQ dst_base+24(FP), DI
	MOVQ src_base+48(FP), SI
	MOVQ src_len+56(FP), CX
	SHRQ $8, CX
	TESTQ CX, CX
	JZ   done

	MOVQ SP, R8
	ADDQ $15, R8
	ANDQ $~15, R8

	// Broadcast every input word across the four lanes.
	MOVOU  chachaSigma<>(SB), X4
	PSHUFD $0x00, X4, X0
	PSHUFD $0x55, X4, X1
	PSHUFD $0xaa, X4, X2
	PSHUFD $0xff, X4, X3
	MOVO   X0, (STATE+0*16)(R8)
	MOVO   X1, (STATE+1*16)(R8)
	MOVO   X2, (STATE+2*16)(R8)
	MOVO   X3, (STATE+3*16)(R8)
	MOVOU  0(AX), X4
	PSHUFD $0x00, X4, X0
	PSHUFD $0x55, X4, X1
	PSHUFD $0xaa, X4, X2
	PSHUFD $0xff, X4, X3
	MOVO   X0, (STATE+4*16)(R8)
	MOVO   X1, (STATE+5*16)(R8)
	MOVO   X2, (STATE+6*16)(R8)
	MOVO   X3, (STATE+7*16)(R8)
	MOVOU  16(AX), X4
	PSHUFD $0x00, X4, X0
	PSHUFD $0x55, X4, X1
	PSHUFD $0xaa, X4, X2
	PSHUFD $0xff, X4, X3
	MOVO   X0, (STATE+8*16)(R8)
	MOVO   X1, (STATE+9*16)(R8)
	MOVO   X2, (STATE+10*16)(R8)
	MOVO   X3, (STATE+11*16)(R8)

	// Word 12 is the block counter: counter+j in lane j, wrapping mod 2^32.
	MOVQ   DX, X4
	PSHUFD $0x00, X4, X0
	MOVOU  chachaLanes<>(SB), X1
	PADDL  X1, X0
	MOVO   X0, (STATE+12*16)(R8)

	MOVQ   0(BX), X4
	PSHUFD $0x00, X4, X0
	PSHUFD $0x55, X4, X1
	MOVL   8(BX), DX
	MOVQ   DX, X4
	PSHUFD $0x00, X4, X2
	MOVO   X0, (STATE+13*16)(R8)
	MOVO   X1, (STATE+14*16)(R8)
	MOVO   X2, (STATE+15*16)(R8)

chunk:
	MOVO (STATE+0*16)(R8), X0
	MOVO (STATE+1*16)(R8), X1
	MOVO (STATE+2*16)(R8), X2
	MOVO (STATE+3*16)(R8), X3
	MOVO (STATE+4*16)(R8), X4
	MOVO (STATE+5*16)(R8), X5
	MOVO (STATE+6*16)(R8), X6
	MOVO (STATE+7*16)(R8), X7
	MOVO (STATE+8*16)(R8), X8
	MOVO (STATE+9*16)(R8), X9
	MOVO (STATE+10*16)(R8), X10
	MOVO (STATE+11*16)(R8), X11
	MOVO (STATE+12*16)(R8), X12
	MOVO (STATE+13*16)(R8), X13
	MOVO (STATE+14*16)(R8), X14
	MOVO (STATE+15*16)(R8), X15
	MOVO X15, SLOT15(R8)
	MOVQ $10, DX

doubleround:
	// Column round; word 15 joins X12 for the fourth column.
	QR(X0, X4, X8, X12, X15)
	QR(X1, X5, X9, X13, X15)
	QR(X2, X6, X10, X14, X15)
	SWAP15
	QR(X3, X7, X11, X12, X15)

	// Diagonal round: the three diagonals through word 15, then word 12
	// back in X12 for the last one.
	QR(X0, X5, X10, X12, X15)
	QR(X2, X7, X8, X13, X15)
	QR(X3, X4, X9, X14, X15)
	SWAP15
	QR(X1, X6, X11, X12, X15)

	DECQ DX
	JNZ  doubleround

	// Add the input state, then write the four blocks out.
	PADDL (STATE+0*16)(R8), X0
	PADDL (STATE+1*16)(R8), X1
	PADDL (STATE+2*16)(R8), X2
	PADDL (STATE+3*16)(R8), X3
	PADDL (STATE+4*16)(R8), X4
	PADDL (STATE+5*16)(R8), X5
	PADDL (STATE+6*16)(R8), X6
	PADDL (STATE+7*16)(R8), X7
	PADDL (STATE+8*16)(R8), X8
	PADDL (STATE+9*16)(R8), X9
	PADDL (STATE+10*16)(R8), X10
	PADDL (STATE+11*16)(R8), X11
	PADDL (STATE+12*16)(R8), X12
	PADDL (STATE+13*16)(R8), X13
	PADDL (STATE+14*16)(R8), X14
	MOVO  X14, SPILL14(R8)

	OUT(X0, X1, X2, X3, X14, X15, 0)
	OUT(X4, X5, X6, X7, X14, X15, 16)
	OUT(X8, X9, X10, X11, X14, X15, 32)
	MOVO  SLOT15(R8), X0
	PADDL (STATE+15*16)(R8), X0
	MOVO  SPILL14(R8), X1
	OUT(X12, X13, X1, X0, X2, X3, 48)

	MOVO  (STATE+12*16)(R8), X0
	MOVOU chachaFour<>(SB), X1
	PADDL X1, X0
	MOVO  X0, (STATE+12*16)(R8)

	ADDQ $256, SI
	ADDQ $256, DI
	DECQ CX
	JNZ  chunk

done:
	RET
