//go:build !race

#include "textflag.h"

// The constants of math's exp_amd64.s, spelled as there so that they
// parse to the same bits, each broadcast into a register before the loop.
DATA expconst<>+0(SB)/8, $0.69314718055966295651160180568695068359375        // ln2, upper half
DATA expconst<>+8(SB)/8, $0.28235290563031577122588448175013436025525412068e-12 // ln2, lower half
DATA expconst<>+16(SB)/8, $0.0625
DATA expconst<>+24(SB)/8, $2.4801587301587301587e-5
DATA expconst<>+32(SB)/8, $1.9841269841269841270e-4
DATA expconst<>+40(SB)/8, $1.3888888888888888889e-3
DATA expconst<>+48(SB)/8, $8.3333333333333333333e-3
DATA expconst<>+56(SB)/8, $4.1666666666666666667e-2
DATA expconst<>+64(SB)/8, $1.6666666666666666667e-1
DATA expconst<>+72(SB)/8, $0.5
DATA expconst<>+80(SB)/8, $1.0
DATA expconst<>+88(SB)/8, $2.0
GLOBL expconst<>(SB), RODATA|NOPTR, $96

// The loop reads these three as 256-bit memory operands: log2e, the
// mask that clears the sign bit, and the range limit 700.
DATA explog2e<>+0(SB)/8, $1.4426950408889634073599246810018920
DATA explog2e<>+8(SB)/8, $1.4426950408889634073599246810018920
DATA explog2e<>+16(SB)/8, $1.4426950408889634073599246810018920
DATA explog2e<>+24(SB)/8, $1.4426950408889634073599246810018920
GLOBL explog2e<>(SB), RODATA|NOPTR, $32

DATA expabs<>+0(SB)/8, $0x7fffffffffffffff
DATA expabs<>+8(SB)/8, $0x7fffffffffffffff
DATA expabs<>+16(SB)/8, $0x7fffffffffffffff
DATA expabs<>+24(SB)/8, $0x7fffffffffffffff
GLOBL expabs<>(SB), RODATA|NOPTR, $32

DATA explim<>+0(SB)/8, $700.0
DATA explim<>+8(SB)/8, $700.0
DATA explim<>+16(SB)/8, $700.0
DATA explim<>+24(SB)/8, $700.0
GLOBL explim<>(SB), RODATA|NOPTR, $32

// func expAsm(dst, src *float64, n int) int
//
// AX counts the elements set. A step loads src[AX..AX+3] into Y0 and
// leaves the polynomial in Y1, k in X2 and 2^k in Y3; Y4–Y15 hold the
// broadcast constants. Each instruction is the four-lane form of the
// scalar FMA path's, with the same operands in the same roles.
TEXT ·expAsm(SB), NOSPLIT, $0-32
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSD expconst<>+0(SB), Y4
	VBROADCASTSD expconst<>+8(SB), Y5
	VBROADCASTSD expconst<>+16(SB), Y6
	VBROADCASTSD expconst<>+24(SB), Y7
	VBROADCASTSD expconst<>+32(SB), Y8
	VBROADCASTSD expconst<>+40(SB), Y9
	VBROADCASTSD expconst<>+48(SB), Y10
	VBROADCASTSD expconst<>+56(SB), Y11
	VBROADCASTSD expconst<>+64(SB), Y12
	VBROADCASTSD expconst<>+72(SB), Y13
	VBROADCASTSD expconst<>+80(SB), Y14
	VBROADCASTSD expconst<>+88(SB), Y15
	XORQ         AX, AX

step:
	CMPQ AX, CX
	JGE  done

	// Stop before a group with |x| > 700 or a NaN (ordered ≤ is false
	// for NaN).
	VMOVUPD   (SI)(AX*8), Y0
	VANDPD    expabs<>(SB), Y0, Y1
	VCMPPD    $0x12, explim<>(SB), Y1, Y1
	VMOVMSKPD Y1, DX
	CMPQ      DX, $15
	JNE       done

	// k = round(x·log2e); x −= k·ln2u; x −= k·ln2l, each fused; x /= 16.
	VMULPD       explog2e<>(SB), Y0, Y1
	VCVTPD2DQY   Y1, X2
	VCVTDQ2PD    X2, Y1
	VFNMADD231PD Y4, Y1, Y0
	VFNMADD231PD Y5, Y1, Y0
	VMULPD       Y6, Y0, Y0

	// The Taylor polynomial by fused Horner steps, then x·p.
	VMOVAPD     Y7, Y1
	VFMADD213PD Y8, Y0, Y1
	VFMADD213PD Y9, Y0, Y1
	VFMADD213PD Y10, Y0, Y1
	VFMADD213PD Y11, Y0, Y1
	VFMADD213PD Y12, Y0, Y1
	VFMADD213PD Y13, Y0, Y1
	VFMADD213PD Y14, Y0, Y1
	VMULPD      Y1, Y0, Y0

	// Four times x = x·(x+2); the last adds 1 in the same rounding.
	VADDPD      Y15, Y0, Y1
	VMULPD      Y1, Y0, Y0
	VADDPD      Y15, Y0, Y1
	VMULPD      Y1, Y0, Y0
	VADDPD      Y15, Y0, Y1
	VMULPD      Y1, Y0, Y0
	VADDPD      Y15, Y0, Y1
	VFMADD213PD Y14, Y1, Y0

	// 2^k: k<<52 plus the bits of 1.0 is (k+1023)<<52 modulo 2^64.
	VPMOVSXDQ X2, Y3
	VPSLLQ    $52, Y3, Y3
	VPADDQ    Y14, Y3, Y3
	VMULPD    Y3, Y0, Y0
	VMOVUPD   Y0, (DI)(AX*8)
	ADDQ      $4, AX
	JMP       step

done:
	MOVQ       AX, ret+24(FP)
	VZEROUPPER
	RET
