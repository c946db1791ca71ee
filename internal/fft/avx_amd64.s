//go:build !race

#include "textflag.h"

// Each Y register holds two complex128 values, one per 128-bit lane:
// [re0 im0 re1 im1]. A twiddle w enters a product as wr = [wr0 wr0 wr1
// wr1] and wi = [wi0 wi0 wi1 wi1].

// CMUL sets v = b·w in both lanes: [br·wr − bi·wi, bi·wr + br·wi], the
// four products rounded one by one and combined by VADDSUBPD, as Go's
// complex128 product rounds them. t is scratch.
#define CMUL(b, wr, wi, t, v) \
	VPERMILPD $5, b, t; \
	VMULPD    wi, t, t; \
	VMULPD    wr, b, v; \
	VADDSUBPD t, v, v

// BF2 is bf2 in both lanes: lo = a + b·w, hi = a − b·w. lo must not be a;
// t and v are scratch.
#define BF2(a, b, wr, wi, t, v, lo, hi) \
	CMUL(b, wr, wi, t, v); \
	VADDPD v, a, lo; \
	VSUBPD v, a, hi

// FOUR runs pass4's butterflies on the points in Y0..Y3 with the twiddles
// ta in Y10/Y11, tb[k] in Y12/Y13 and tb[h+k] in Y14/Y15, leaving the
// results in Y0..Y3.
#define FOUR \
	BF2(Y0, Y1, Y10, Y11, Y8, Y9, Y4, Y5); \
	BF2(Y2, Y3, Y10, Y11, Y8, Y9, Y6, Y7); \
	BF2(Y4, Y6, Y12, Y13, Y8, Y9, Y0, Y2); \
	BF2(Y5, Y7, Y14, Y15, Y8, Y9, Y1, Y3)

// SUMS runs sum4's sums on the points in Y0..Y3 with the twiddles ta in
// Y10/Y11 and tb in Y12/Y13, leaving the result in Y0.
#define SUMS \
	CMUL(Y1, Y10, Y11, Y8, Y9); \
	VADDPD Y9, Y0, Y4; \
	CMUL(Y3, Y10, Y11, Y14, Y15); \
	VADDPD Y15, Y2, Y6; \
	CMUL(Y6, Y12, Y13, Y8, Y9); \
	VADDPD Y9, Y4, Y0

// func first4Asm(x, src []complex128, rev []int32, t0, t1 []complex128)
//
// The groups of r and r+1 (r even) share a register: their inputs are
// adjacent in each of src's four quarters, and the outputs go to the four
// points at rev[r] and at rev[r+1].
TEXT ·first4Asm(SB), NOSPLIT, $0-120
	MOVQ x_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), CX
	MOVQ rev_base+48(FP), R12
	MOVQ t0_base+72(FP), AX
	MOVQ t1_base+96(FP), DX
	VBROADCASTSD (AX), Y10
	VBROADCASTSD 8(AX), Y11
	VBROADCASTSD (DX), Y12
	VBROADCASTSD 8(DX), Y13
	VBROADCASTSD 16(DX), Y14
	VBROADCASTSD 24(DX), Y15
	SHLQ $2, CX          // a quarter of src, in bytes
	LEAQ (SI)(CX*1), R9
	LEAQ (R9)(CX*1), R10
	LEAQ (R10)(CX*1), R11
	XORQ BX, BX
	TESTQ CX, CX
	JZ   first4done

first4loop:
	VMOVUPD (SI)(BX*1), Y0
	VMOVUPD (R9)(BX*1), Y1
	VMOVUPD (R10)(BX*1), Y2
	VMOVUPD (R11)(BX*1), Y3
	BF2(Y0, Y2, Y10, Y11, Y8, Y9, Y4, Y5)
	BF2(Y1, Y3, Y10, Y11, Y8, Y9, Y6, Y7)
	BF2(Y4, Y6, Y12, Y13, Y8, Y9, Y0, Y2)
	BF2(Y5, Y7, Y14, Y15, Y8, Y9, Y1, Y3)
	VPERM2F128 $0x20, Y1, Y0, Y4
	VPERM2F128 $0x20, Y3, Y2, Y5
	VPERM2F128 $0x31, Y1, Y0, Y6
	VPERM2F128 $0x31, Y3, Y2, Y7
	MOVL (R12), AX
	SHLQ $4, AX
	VMOVUPD Y4, (DI)(AX*1)
	VMOVUPD Y5, 32(DI)(AX*1)
	MOVL 4(R12), AX
	SHLQ $4, AX
	VMOVUPD Y6, (DI)(AX*1)
	VMOVUPD Y7, 32(DI)(AX*1)
	ADDQ $8, R12
	ADDQ $32, BX
	CMPQ BX, CX
	JB   first4loop

first4done:
	VZEROUPPER
	RET

// func pass4Asm(x []complex128, h int, ta, tb []complex128)
TEXT ·pass4Asm(SB), NOSPLIT, $0-80
	MOVQ x_base+0(FP), DI
	MOVQ x_len+8(FP), CX
	MOVQ h+24(FP), BX
	MOVQ ta_base+32(FP), SI
	MOVQ tb_base+56(FP), DX
	SHLQ $4, CX
	ADDQ DI, CX          // the end of x
	SHLQ $4, BX          // h in bytes
	LEAQ (DX)(BX*1), R8  // tb[h:]
	CMPQ DI, CX
	JAE  pass4done

pass4block:
	LEAQ (DI)(BX*1), R9
	LEAQ (R9)(BX*1), R10
	LEAQ (R10)(BX*1), R11
	XORQ AX, AX

pass4loop:
	VMOVDDUP (SI)(AX*1), Y10
	VPERMILPD $15, (SI)(AX*1), Y11
	VMOVDDUP (DX)(AX*1), Y12
	VPERMILPD $15, (DX)(AX*1), Y13
	VMOVDDUP (R8)(AX*1), Y14
	VPERMILPD $15, (R8)(AX*1), Y15
	VMOVUPD (DI)(AX*1), Y0
	VMOVUPD (R9)(AX*1), Y1
	VMOVUPD (R10)(AX*1), Y2
	VMOVUPD (R11)(AX*1), Y3
	FOUR
	VMOVUPD Y0, (DI)(AX*1)
	VMOVUPD Y1, (R9)(AX*1)
	VMOVUPD Y2, (R10)(AX*1)
	VMOVUPD Y3, (R11)(AX*1)
	ADDQ $32, AX
	CMPQ AX, BX
	JB   pass4loop
	LEAQ (R11)(BX*1), DI
	CMPQ DI, CX
	JB   pass4block

pass4done:
	VZEROUPPER
	RET

// func sum4Asm(x []complex128, h, keep int, ta, tb []complex128)
TEXT ·sum4Asm(SB), NOSPLIT, $0-88
	MOVQ x_base+0(FP), DI
	MOVQ x_len+8(FP), CX
	MOVQ h+24(FP), BX
	MOVQ keep+32(FP), R12
	MOVQ ta_base+40(FP), SI
	MOVQ tb_base+64(FP), DX
	SHLQ $4, CX
	ADDQ DI, CX          // the end of x
	SHLQ $4, BX          // h in bytes
	SHLQ $4, R12         // keep in bytes
	TESTQ R12, R12
	JZ   sum4done
	CMPQ DI, CX
	JAE  sum4done

sum4block:
	LEAQ (DI)(BX*1), R9
	LEAQ (R9)(BX*1), R10
	LEAQ (R10)(BX*1), R11
	XORQ AX, AX

sum4loop:
	VMOVDDUP (SI)(AX*1), Y10
	VPERMILPD $15, (SI)(AX*1), Y11
	VMOVDDUP (DX)(AX*1), Y12
	VPERMILPD $15, (DX)(AX*1), Y13
	VMOVUPD (DI)(AX*1), Y0
	VMOVUPD (R9)(AX*1), Y1
	VMOVUPD (R10)(AX*1), Y2
	VMOVUPD (R11)(AX*1), Y3
	SUMS
	VMOVUPD Y0, (DI)(AX*1)
	ADDQ $32, AX
	CMPQ AX, R12
	JB   sum4loop
	LEAQ (R11)(BX*1), DI
	CMPQ DI, CX
	JB   sum4block

sum4done:
	VZEROUPPER
	RET

// func rows4Asm(r0, r1, r2, r3 []complex128, w1, w2, w3 complex128)
//
// pass4Rows's butterflies on one group of four rows, which share their
// twiddles.
TEXT ·rows4Asm(SB), NOSPLIT, $0-144
	MOVQ r0_base+0(FP), DI
	MOVQ r0_len+8(FP), CX
	MOVQ r1_base+24(FP), R9
	MOVQ r2_base+48(FP), R10
	MOVQ r3_base+72(FP), R11
	VBROADCASTSD w1_real+96(FP), Y10
	VBROADCASTSD w1_imag+104(FP), Y11
	VBROADCASTSD w2_real+112(FP), Y12
	VBROADCASTSD w2_imag+120(FP), Y13
	VBROADCASTSD w3_real+128(FP), Y14
	VBROADCASTSD w3_imag+136(FP), Y15
	SHLQ $4, CX
	XORQ AX, AX
	TESTQ CX, CX
	JZ   rows4done

rows4loop:
	VMOVUPD (DI)(AX*1), Y0
	VMOVUPD (R9)(AX*1), Y1
	VMOVUPD (R10)(AX*1), Y2
	VMOVUPD (R11)(AX*1), Y3
	FOUR
	VMOVUPD Y0, (DI)(AX*1)
	VMOVUPD Y1, (R9)(AX*1)
	VMOVUPD Y2, (R10)(AX*1)
	VMOVUPD Y3, (R11)(AX*1)
	ADDQ $32, AX
	CMPQ AX, CX
	JB   rows4loop

rows4done:
	VZEROUPPER
	RET

// func rowSums4Asm(r0, r1, r2, r3 []complex128, w1, w2 complex128)
//
// sum4Rows's sums on one group of four rows.
TEXT ·rowSums4Asm(SB), NOSPLIT, $0-128
	MOVQ r0_base+0(FP), DI
	MOVQ r0_len+8(FP), CX
	MOVQ r1_base+24(FP), R9
	MOVQ r2_base+48(FP), R10
	MOVQ r3_base+72(FP), R11
	VBROADCASTSD w1_real+96(FP), Y10
	VBROADCASTSD w1_imag+104(FP), Y11
	VBROADCASTSD w2_real+112(FP), Y12
	VBROADCASTSD w2_imag+120(FP), Y13
	SHLQ $4, CX
	XORQ AX, AX
	TESTQ CX, CX
	JZ   rowsums4done

rowsums4loop:
	VMOVUPD (DI)(AX*1), Y0
	VMOVUPD (R9)(AX*1), Y1
	VMOVUPD (R10)(AX*1), Y2
	VMOVUPD (R11)(AX*1), Y3
	SUMS
	VMOVUPD Y0, (DI)(AX*1)
	ADDQ $32, AX
	CMPQ AX, CX
	JB   rowsums4loop

rowsums4done:
	VZEROUPPER
	RET
