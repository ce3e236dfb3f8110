#include "textflag.h"

// AVX2 lanes under the lossless delta block coder (delta.go): four values per
// YMM register, four registers per 16-value block. It is integer arithmetic on
// IEEE-754 bit patterns only — wrapping adds and subtracts, shifts, compares
// and byte shuffles, no floating-point instruction — so every lane computes
// exactly what codeBlock and decodeBlock compute. Per width n the Go side
// hands in a 32-byte VPSHUFB control (one pattern for both 128-bit lanes, two
// values each) and the bias blockBias(n). Every function ends in VZEROUPPER.

// DIFF forms one group's differences d = cur − (a + (b − c)) in Y and ors
// their zigzag folds d<<1 ^ (d>>63) into Y7. AVX2 has no 64-bit arithmetic
// shift, so the sign mask is 0 > d (Y15 holds zero).
#define DIFF(off, Y) \
	VMOVDQU off(R9), Y4; VPSUBQ off(R10), Y4, Y4; VPADDQ off(R8), Y4, Y4; \
	VMOVDQU off(SI), Y; VPSUBQ Y4, Y, Y; \
	VPSLLQ $1, Y, Y5; VPCMPGTQ Y, Y15, Y6; VPXOR Y6, Y5, Y5; VPOR Y5, Y7, Y7

// PACK biases one group (Y6), moves each lane's two values' low n bytes to
// the lane's head (Y5), and stores the lanes at DI and DI+2n (CX = 2n): the
// second store overwrites the first one's slack. DI advances by 4n.
#define PACK(Y, X) \
	VPADDQ Y6, Y, Y; VPSHUFB Y5, Y, Y; \
	VMOVDQU X, (DI); VEXTRACTI128 $1, Y, (DI)(CX*1); \
	LEAQ (DI)(CX*2), DI

// func codeBlocksAVX2(out *byte, cur, a, b, c *float64, blocks int, pack *[9][32]byte, bias *[9]uint64) int
// Codes blocks > 0 full blocks from out on, as codeBlock does, and returns
// the bytes coded. A block's stores reach at most 129 bytes past its start.
TEXT ·codeBlocksAVX2(SB), NOSPLIT, $0-72
	MOVQ  out+0(FP), DI
	MOVQ  cur+8(FP), SI
	MOVQ  a+16(FP), R8
	MOVQ  b+24(FP), R9
	MOVQ  c+32(FP), R10
	MOVQ  blocks+40(FP), BX
	MOVQ  pack+48(FP), R11
	MOVQ  bias+56(FP), R12
	VPXOR Y15, Y15, Y15
	MOVQ  $-8, R13

codeLoop:
	VPXOR Y7, Y7, Y7
	DIFF(0, Y0)
	DIFF(32, Y1)
	DIFF(64, Y2)
	DIFF(96, Y3)

	// n = (bit length of the or-ed folds + 7) / 8: 0 exactly when every
	// difference is 0 (BSRQ sets ZF on a zero source, and -8 stands in).
	VEXTRACTI128 $1, Y7, X6
	VPOR         X6, X7, X7
	VPSHUFD      $0x4e, X7, X6
	VPOR         X6, X7, X7
	VMOVQ        X7, AX
	BSRQ         AX, AX
	CMOVQEQ      R13, AX
	ADDQ         $8, AX
	SHRQ         $3, AX
	MOVB         AX, (DI)
	INCQ         DI
	MOVQ         AX, DX
	SHLQ         $5, DX
	VMOVDQU      (R11)(DX*1), Y5
	VPBROADCASTQ (R12)(AX*8), Y6
	LEAQ         (AX)(AX*1), CX
	PACK(Y0, X0)
	PACK(Y1, X1)
	PACK(Y2, X2)
	PACK(Y3, X3)

	ADDQ $128, SI
	ADDQ $128, R8
	ADDQ $128, R9
	ADDQ $128, R10
	DECQ BX
	JNZ  codeLoop
	SUBQ out+0(FP), DI
	MOVQ DI, ret+64(FP)
	VZEROUPPER
	RET

// UNPACK decodes one group: two values per lane from SI and SI+2n (CX = 2n),
// each widened to eight bytes by Y5, which zeroes the bytes past n (the
// portable decoder's & mask), unbiased by Y6 and added to the prediction
// a + (b − c). The predictors are read before dst is written, so dst may be
// a, b or c.
#define UNPACK(off) \
	VMOVDQU (SI), X0; VINSERTI128 $1, (SI)(CX*1), Y0, Y0; \
	VPSHUFB Y5, Y0, Y0; VPSUBQ Y6, Y0, Y0; \
	VMOVDQU off(R9), Y1; VPSUBQ off(R10), Y1, Y1; VPADDQ off(R8), Y1, Y1; \
	VPADDQ Y1, Y0, Y0; VMOVDQU Y0, off(DI); \
	LEAQ (SI)(CX*2), SI

// func decodeBlocksAVX2(dst *float64, in *byte, a, b, c *float64, blocks int, unpack *[9][32]byte, bias *[9]uint64)
// Decodes blocks > 0 full blocks from in on, as decodeBlock does. It checks
// nothing: the caller has, that every width is at most 8 and that every
// block's last load, 16 − 2n bytes past the block, stays inside the body.
TEXT ·decodeBlocksAVX2(SB), NOSPLIT, $0-64
	MOVQ dst+0(FP), DI
	MOVQ in+8(FP), SI
	MOVQ a+16(FP), R8
	MOVQ b+24(FP), R9
	MOVQ c+32(FP), R10
	MOVQ blocks+40(FP), BX
	MOVQ unpack+48(FP), R11
	MOVQ bias+56(FP), R12

decodeLoop:
	MOVBQZX      (SI), AX
	INCQ         SI
	MOVQ         AX, DX
	SHLQ         $5, DX
	VMOVDQU      (R11)(DX*1), Y5
	VPBROADCASTQ (R12)(AX*8), Y6
	LEAQ         (AX)(AX*1), CX
	UNPACK(0)
	UNPACK(32)
	UNPACK(64)
	UNPACK(96)

	ADDQ $128, DI
	ADDQ $128, R8
	ADDQ $128, R9
	ADDQ $128, R10
	DECQ BX
	JNZ  decodeLoop
	VZEROUPPER
	RET
