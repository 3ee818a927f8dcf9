//go:build amd64 && !race

#include "textflag.h"

// -MaxFloat32, where every max starts.
DATA poolMaxSeed<>+0(SB)/4, $0xff7fffff
GLOBL poolMaxSeed<>(SB), RODATA|NOPTR, $4

// Both routines reduce blocks of 8 pooling windows, window j of a block
// covering x[r*w + j*s + t] for r < rows and t < k. One YMM register holds
// the 8 running results and takes the taps in row-major order, as the
// scalar loop does. Registers: DI the outputs, SI the block's first tap,
// CX the blocks left, R8 rows, R9 the row stride in bytes, R10 k, R11 the
// bytes from one block's first tap to the next (32·s). blocks, rows and k
// must be at least 1.

// TAP1 loads the 8 windows' taps at AX for stride 1: one load.
#define TAP1 VMOVUPS (AX), Y1

// TAP2 loads them for stride 2: x[0..8) and x[7..15) hold the 8 even taps
// x[0], x[2], …, x[14], in lanes 0 and 2 of each half of the first and
// lanes 1 and 3 of each half of the second. VSHUFPS gathers them as
// (x0 x2 x8 x10 | x4 x6 x12 x14) and VPERMPD puts the pairs in order.
// Reading x[7..15) rather than x[8..16) ends the loads at x[14], the last
// window's tap, so nothing past the windows is read.
#define TAP2 \
	VMOVUPS (AX), Y1; \
	VSHUFPS $0xD8, 28(AX), Y1, Y1; \
	VPERMPD $0xD8, Y1, Y1

// MAX is `if tap > max { max = tap }`: VMAXPS returns its first source
// (the tap in Y1) when it is greater, and otherwise its second (the max in
// Y0), also when either is NaN or both are zeros.
#define MAX VMAXPS Y0, Y1, Y0

// SUM is `sum += tap`, with the sum as the first source.
#define SUM VADDPS Y1, Y0, Y0

// DIVIDE is `sum / div`, div broadcast in Y3.
#define DIVIDE VDIVPS Y3, Y0, Y0

// KEEP leaves the max as it is.
#define KEEP

// POOL reduces CX blocks: Y0 starts each block at Y2, COMBINE folds in
// each tap that TAP loads into Y1, FINISH ends the block, and Y0 is
// stored to the 8 outputs at DI.
#define POOL(TAP, COMBINE, FINISH, block, row, tap) \
block: \
	VMOVAPS Y2, Y0; \
	MOVQ    SI, BX; \
	MOVQ    R8, DX; \
row: \
	MOVQ    BX, AX; \
	MOVQ    R10, R12; \
tap: \
	TAP; \
	COMBINE; \
	ADDQ    $4, AX; \
	DECQ    R12; \
	JNZ     tap; \
	ADDQ    R9, BX; \
	DECQ    DX; \
	JNZ     row; \
	FINISH; \
	VMOVUPS Y0, (DI); \
	ADDQ    $32, DI; \
	ADDQ    R11, SI; \
	DECQ    CX; \
	JNZ     block

// func maxPoolAVX2(o, x *float32, blocks, rows, w, k, s int)
TEXT ·maxPoolAVX2(SB), NOSPLIT, $0-56
	MOVQ o+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ blocks+16(FP), CX
	MOVQ rows+24(FP), R8
	MOVQ w+32(FP), R9
	MOVQ k+40(FP), R10
	MOVQ s+48(FP), R11
	SHLQ $2, R9
	VBROADCASTSS poolMaxSeed<>(SB), Y2
	CMPQ R11, $1
	JNE  stride2
	SHLQ $5, R11
	POOL(TAP1, MAX, KEEP, b1, r1, t1)
	VZEROUPPER
	RET

stride2:
	SHLQ $5, R11
	POOL(TAP2, MAX, KEEP, b2, r2, t2)
	VZEROUPPER
	RET

// func avgPoolAVX2(o, x *float32, blocks, rows, w, k, s int, div float32)
TEXT ·avgPoolAVX2(SB), NOSPLIT, $0-60
	MOVQ o+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ blocks+16(FP), CX
	MOVQ rows+24(FP), R8
	MOVQ w+32(FP), R9
	MOVQ k+40(FP), R10
	MOVQ s+48(FP), R11
	SHLQ $2, R9
	VBROADCASTSS div+56(FP), Y3
	VXORPS       Y2, Y2, Y2
	CMPQ R11, $1
	JNE  stride2
	SHLQ $5, R11
	POOL(TAP1, SUM, DIVIDE, b1, r1, t1)
	VZEROUPPER
	RET

stride2:
	SHLQ $5, R11
	POOL(TAP2, SUM, DIVIDE, b2, r2, t2)
	VZEROUPPER
	RET
