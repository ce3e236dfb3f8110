#include "textflag.h"

// AVX2 lanes under the lossless delta block coder (delta.go): four values per
// YMM register, four registers per 16-value block. It is integer arithmetic on
// IEEE-754 bit patterns only — wrapping adds and subtracts, shifts, compares
// and byte shuffles, no floating-point instruction — so every lane computes
// exactly what codeBlock and decodeBlock compute. Per width n the Go side
// hands in a 512-byte table (codeLane, decodeLane in delta_amd64.go): per
// group of four values a 32-byte VPSHUFB control and per-qword shift counts,
// each 128-bit lane's byte offset in the block, and the bias blockBias(n).
// Every function ends in VZEROUPPER.

// DIFF forms one group's differences d = cur − (a + (b − c)) in Y and ors
// d ^ d<<1 into Y7. Bit k of that is set where bits k and k−1 of d differ,
// so its bit length is the bits d needs, sign included — the bit length of
// codeBlock's zigzag fold, without the sign mask AVX2 lacks a shift for.
#define DIFF(off, Y) \
	VMOVDQU off(R9), Y4; VPSUBQ off(R10), Y4, Y4; VPADDQ off(R8), Y4, Y4; \
	VMOVDQU off(SI), Y; VPSUBQ Y4, Y, Y; \
	VPSLLQ $1, Y, Y5; VPXOR Y, Y5, Y5; VPOR Y5, Y7, Y7

// PACK stores one group, given W, its biased values each shifted to its bit
// offset in its first byte, and T, per lane the shifted value before the
// lane's and the lane's second value. Per lane: the first value stays in the
// low qword; the second is shuffled up to byte o; the byte of the value before
// the lane that holds its top bits is shuffled into byte 0, whose low bits it
// fills — the byte the previous lane's store wrote them to, and this store
// overwrites. The lanes go to DI + base, in order, each store overwriting the
// previous one's zero slack. DX points at the width's codeLane.
#define PACK(shuf, base0, base1, W, T) \
	VPSHUFB      shuf(DX), T, T; \
	VPBLENDD     $0xcc, Y15, W, Y4; \
	VPOR         T, Y4, Y4; \
	MOVQ         base0(DX), R12; \
	VMOVDQU      X4, (DI)(R12*1); \
	MOVQ         base1(DX), R12; \
	VEXTRACTI128 $1, Y4, (DI)(R12*1)

// func codeBlocksAVX2(out *byte, cur, a, b, c *float64, blocks int, lanes *[65]codeLane) (coded, written int)
// Codes up to blocks > 0 full blocks from out on, as codeBlock does, stopping
// before the first block whose width is 1–7 bits; returns the blocks and the
// bytes coded. A block's stores reach at most 129 bytes past its start.
TEXT ·codeBlocksAVX2(SB), NOSPLIT, $0-72
	MOVQ  out+0(FP), DI
	MOVQ  cur+8(FP), SI
	MOVQ  a+16(FP), R8
	MOVQ  b+24(FP), R9
	MOVQ  c+32(FP), R10
	MOVQ  blocks+40(FP), BX
	MOVQ  lanes+48(FP), R11
	VPXOR Y15, Y15, Y15
	MOVQ  $-1, R13
	MOVQ  $64, R14
	XORQ  CX, CX

codeLoop:
	VPXOR Y7, Y7, Y7
	DIFF(0, Y0)
	DIFF(32, Y1)
	DIFF(64, Y2)
	DIFF(96, Y3)

	// n = bit length of the or-ed folds: 0 exactly when every difference is
	// 0 (BSRQ sets ZF on a zero source, and -1 stands in); 57–63 become 64.
	VEXTRACTI128 $1, Y7, X6
	VPOR         X6, X7, X7
	VPSHUFD      $0x4e, X7, X6
	VPOR         X6, X7, X7
	VMOVQ        X7, AX
	BSRQ         AX, AX
	CMOVQEQ      R13, AX
	INCQ         AX
	CMPQ         AX, $56
	CMOVQHI      R14, AX
	LEAQ         -1(AX), DX
	CMPQ         DX, $7
	JCS          codeDone // 1 ≤ n ≤ 7: the portable coder's
	MOVB         AX, (DI)
	INCQ         DI
	MOVQ         AX, DX
	SHLQ         $9, DX
	ADDQ         R11, DX
	VPBROADCASTQ 320(DX), Y6
	VPADDQ       Y6, Y0, Y0
	VPADDQ       Y6, Y1, Y1
	VPADDQ       Y6, Y2, Y2
	VPADDQ       Y6, Y3, Y3
	VPSLLVQ      128(DX), Y0, Y0
	VPSLLVQ      160(DX), Y1, Y1
	VPSLLVQ      192(DX), Y2, Y2
	VPSLLVQ      224(DX), Y3, Y3

	// T for groups 0 and 2 is [q0, q1 | q1, q3] of their own: their first
	// lane starts on a byte boundary (bit 2hn, h = 0 or 4), so it takes no
	// byte from before. T for groups 1 and 3 is [P.q3, q1 | q1, q3], P the
	// group before.
	VPERMQ       $0xd4, Y0, Y5
	PACK(0, 256, 264, Y0, Y5)
	VPERM2I128   $0x21, Y1, Y0, Y5
	VPUNPCKHQDQ  Y1, Y5, Y5
	PACK(32, 272, 280, Y1, Y5)
	VPERMQ       $0xd4, Y2, Y5
	PACK(64, 288, 296, Y2, Y5)
	VPERM2I128   $0x21, Y3, Y2, Y5
	VPUNPCKHQDQ  Y3, Y5, Y5
	PACK(96, 304, 312, Y3, Y5)
	LEAQ         (DI)(AX*2), DI

	ADDQ $128, SI
	ADDQ $128, R8
	ADDQ $128, R9
	ADDQ $128, R10
	INCQ CX
	CMPQ CX, BX
	JNE  codeLoop

codeDone:
	SUBQ out+0(FP), DI
	MOVQ CX, coded+56(FP)
	MOVQ DI, written+64(FP)
	VZEROUPPER
	RET

// UNPACK decodes one group: lane h's 16 bytes from SI + base, its values
// shuffled into their qwords, shifted down by their bit offsets, masked to n
// bits (Y6), unbiased (Y7) and added to the prediction a + (b − c). The
// predictors are read before dst is written, so dst may be a, b or c. DX
// points at the width's decodeLane.
#define UNPACK(off, shuf, shr, base0, base1) \
	MOVQ base0(DX), R12; VMOVDQU (SI)(R12*1), X0; \
	MOVQ base1(DX), R12; VINSERTI128 $1, (SI)(R12*1), Y0, Y0; \
	VPSHUFB shuf(DX), Y0, Y0; VPSRLVQ shr(DX), Y0, Y0; VPAND Y6, Y0, Y0; VPSUBQ Y7, Y0, Y0; \
	VMOVDQU off(R9), Y1; VPSUBQ off(R10), Y1, Y1; VPADDQ off(R8), Y1, Y1; \
	VPADDQ Y1, Y0, Y0; VMOVDQU Y0, off(DI)

// func decodeBlocksAVX2(dst *float64, in *byte, a, b, c *float64, blocks int, lanes *[65]decodeLane)
// Decodes blocks > 0 full blocks from in on, as decodeBlock does. It checks
// nothing: the caller has, that every width is at most 56 or is 64 and that
// every block's last load, 14n/8 bytes into its values, ends inside the body.
TEXT ·decodeBlocksAVX2(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), DI
	MOVQ in+8(FP), SI
	MOVQ a+16(FP), R8
	MOVQ b+24(FP), R9
	MOVQ c+32(FP), R10
	MOVQ blocks+40(FP), BX
	MOVQ lanes+48(FP), R11

decodeLoop:
	MOVBQZX (SI), AX
	INCQ    SI
	MOVQ    AX, DX
	SHLQ    $9, DX
	ADDQ    R11, DX
	VMOVDQU 320(DX), Y6
	VMOVDQU 352(DX), Y7
	UNPACK(0, 0, 128, 256, 264)
	UNPACK(32, 32, 160, 272, 280)
	UNPACK(64, 64, 192, 288, 296)
	UNPACK(96, 96, 224, 304, 312)
	LEAQ    (SI)(AX*2), SI

	ADDQ $128, DI
	ADDQ $128, R8
	ADDQ $128, R9
	ADDQ $128, R10
	DECQ BX
	JNZ  decodeLoop
	VZEROUPPER
	RET
