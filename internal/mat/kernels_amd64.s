#include "textflag.h"

// AVX2 lanes under MulT, AddMulTA, Axpy and Dense.AddScaled (the last two
// through axpyAVX2). Every lane runs the portable kernel's own sequence of
// roundings for one output element: a VMULPD then a
// VADDPD wherever the Go code multiplies then adds, never a fused
// multiply-add (it rounds once where the reference rounds twice). Tails stay
// in Go. Every function ends in VZEROUPPER.

// func cpuid(leaf, sub uint32) (a, b, c, d uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, a+8(FP)
	MOVL BX, b+12(FP)
	MOVL CX, c+16(FP)
	MOVL DX, d+20(FP)
	RET

// func xgetbv0() uint32
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET

// func axpyAVX2(dst *float64, alpha float64, x *float64, n int)
// dst[j] += alpha·x[j] for j < n, n a positive multiple of 4.
TEXT ·axpyAVX2(SB), NOSPLIT, $0-32
	MOVQ         dst+0(FP), DI
	VBROADCASTSD alpha+8(FP), Y0
	MOVQ         x+16(FP), SI
	MOVQ         n+24(FP), CX
	SHLQ         $3, CX
	XORQ         AX, AX

axpyLoop:
	VMULPD  (SI)(AX*1), Y0, Y1
	VADDPD  (DI)(AX*1), Y1, Y1
	VMOVUPD Y1, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     axpyLoop
	VZEROUPPER
	RET

// func axpy4AVX2(dst, x0, x1, x2, x3 *float64, c0, c1, c2, c3 float64, n int)
// AddMulTA's fused four-sample update, lanes across j < n (n a positive
// multiple of 4): w += c0·x0[j]; w += c1·x1[j]; w += c2·x2[j]; w += c3·x3[j].
TEXT ·axpy4AVX2(SB), NOSPLIT, $0-80
	MOVQ         dst+0(FP), DI
	MOVQ         x0+8(FP), SI
	MOVQ         x1+16(FP), R8
	MOVQ         x2+24(FP), R9
	MOVQ         x3+32(FP), R10
	VBROADCASTSD c0+40(FP), Y0
	VBROADCASTSD c1+48(FP), Y1
	VBROADCASTSD c2+56(FP), Y2
	VBROADCASTSD c3+64(FP), Y3
	MOVQ         n+72(FP), CX
	SHLQ         $3, CX
	XORQ         AX, AX

axpy4Loop:
	VMULPD  (SI)(AX*1), Y0, Y5
	VADDPD  (DI)(AX*1), Y5, Y4
	VMULPD  (R8)(AX*1), Y1, Y5
	VADDPD  Y5, Y4, Y4
	VMULPD  (R9)(AX*1), Y2, Y5
	VADDPD  Y5, Y4, Y4
	VMULPD  (R10)(AX*1), Y3, Y5
	VADDPD  Y5, Y4, Y4
	VMOVUPD Y4, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     axpy4Loop
	VZEROUPPER
	RET

// GROUP adds one of Dot's 4-wide groups to acc, for the class whose B row is
// at w and the four A rows interleaved in Y4..Y7 (Y4 = column k of rows
// 0..3, Y5 = column k+1, ...): acc += ((a·b₀ + a·b₁) + a·b₂) + a·b₃.
#define GROUP(w, acc) \
	VBROADCASTSD (w)(AX*1), Y8; VMULPD Y4, Y8, Y8; \
	VBROADCASTSD 8(w)(AX*1), Y9; VMULPD Y5, Y9, Y9; VADDPD Y9, Y8, Y8; \
	VBROADCASTSD 16(w)(AX*1), Y9; VMULPD Y6, Y9, Y9; VADDPD Y9, Y8, Y8; \
	VBROADCASTSD 24(w)(AX*1), Y9; VMULPD Y7, Y9, Y9; VADDPD Y9, Y8, Y8; \
	VADDPD Y8, acc, acc

// LOADT loads the interleaved group at T index AX into Y4..Y7.
#define LOADT \
	VMOVAPD (R12)(AX*4), Y4; VMOVAPD 32(R12)(AX*4), Y5; \
	VMOVAPD 64(R12)(AX*4), Y6; VMOVAPD 96(R12)(AX*4), Y7

// ACCLOAD gathers the running sums of one class (column off of the four d
// rows; DI rows 0–1, SI rows 2–3, R8 the row stride) into one register, and
// ACCSTORE scatters them back.
#define ACCLOAD(off, Y, X) \
	VMOVSD off(DI), X; VMOVHPD off(DI)(R8*1), X, X; \
	VMOVSD off(SI), X10; VMOVHPD off(SI)(R8*1), X10, X10; \
	VINSERTF128 $1, X10, Y, Y

#define ACCSTORE(off, Y, X) \
	VMOVSD X, off(DI); VMOVHPD X, off(DI)(R8*1); \
	VEXTRACTF128 $1, Y, X10; \
	VMOVSD X10, off(SI); VMOVHPD X10, off(SI)(R8*1)

// func mulT4AVX2(d, a *float64, aStride int, b *float64, bStride, classes, n int)
// One k-chunk of MulT's 4-row block: for the four A rows at a (row stride
// aStride) and each of the classes B rows at b (row stride bStride), adds
// Dot's groups over columns [0, n) to the running sums d[r·classes + j],
// r < 4. n is a positive multiple of 4, at most vecChunk. Lanes are the four
// rows: the chunk is first transposed into a 32-byte-aligned stack buffer T
// (T[k] = a0[k], a1[k], a2[k], a3[k]), then every B element is broadcast.
TEXT ·mulT4AVX2(SB), 0, $2080-56
	MOVQ a+8(FP), SI
	MOVQ aStride+16(FP), R9
	SHLQ $3, R9
	MOVQ n+48(FP), BX
	SHLQ $3, BX
	LEAQ 31(SP), R12
	ANDQ $~31, R12
	LEAQ (SI)(R9*1), R8
	LEAQ (SI)(R9*2), R10
	LEAQ (R8)(R9*2), R11
	MOVQ R12, DI
	XORQ AX, AX

transpose:
	VMOVUPD    (SI)(AX*1), Y0
	VMOVUPD    (R8)(AX*1), Y1
	VMOVUPD    (R10)(AX*1), Y2
	VMOVUPD    (R11)(AX*1), Y3
	VUNPCKLPD  Y1, Y0, Y4
	VUNPCKHPD  Y1, Y0, Y5
	VUNPCKLPD  Y3, Y2, Y6
	VUNPCKHPD  Y3, Y2, Y7
	VPERM2F128 $0x20, Y6, Y4, Y0
	VPERM2F128 $0x20, Y7, Y5, Y1
	VPERM2F128 $0x31, Y6, Y4, Y2
	VPERM2F128 $0x31, Y7, Y5, Y3
	VMOVAPD    Y0, (DI)
	VMOVAPD    Y1, 32(DI)
	VMOVAPD    Y2, 64(DI)
	VMOVAPD    Y3, 96(DI)
	ADDQ       $128, DI
	ADDQ       $32, AX
	CMPQ       AX, BX
	JLT        transpose

	MOVQ d+0(FP), DI
	MOVQ b+24(FP), DX
	MOVQ bStride+32(FP), R11
	SHLQ $3, R11
	MOVQ classes+40(FP), CX
	MOVQ CX, R8
	SHLQ $3, R8
	LEAQ (DI)(R8*2), SI
	CMPQ CX, $4
	JLT  single

quad:
	LEAQ    (DX)(R11*1), R9
	LEAQ    (DX)(R11*2), R10
	LEAQ    (R9)(R11*2), R13
	ACCLOAD(0, Y0, X0)
	ACCLOAD(8, Y1, X1)
	ACCLOAD(16, Y2, X2)
	ACCLOAD(24, Y3, X3)
	XORQ    AX, AX

quadK:
	LOADT
	GROUP(DX, Y0)
	GROUP(R9, Y1)
	GROUP(R10, Y2)
	GROUP(R13, Y3)
	ADDQ $32, AX
	CMPQ AX, BX
	JLT  quadK
	ACCSTORE(0, Y0, X0)
	ACCSTORE(8, Y1, X1)
	ACCSTORE(16, Y2, X2)
	ACCSTORE(24, Y3, X3)
	ADDQ $32, DI
	ADDQ $32, SI
	LEAQ (DX)(R11*4), DX
	SUBQ $4, CX
	CMPQ CX, $4
	JGE  quad

single:
	TESTQ CX, CX
	JZ    done
	ACCLOAD(0, Y0, X0)
	XORQ  AX, AX

singleK:
	LOADT
	GROUP(DX, Y0)
	ADDQ $32, AX
	CMPQ AX, BX
	JLT  singleK
	ACCSTORE(0, Y0, X0)
	ADDQ $8, DI
	ADDQ $8, SI
	ADDQ R11, DX
	DECQ CX
	JMP  single

done:
	VZEROUPPER
	RET
