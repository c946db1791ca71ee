//go:build !race

#include "textflag.h"

// func scaleRowAsm(row *complex128, z, l *float64, n int, norm float64)
//
// A step scales points c..c+3: Y0 holds l[c..c+3], and Y1 and Y2 its
// values paired up as [l0 l0 l1 l1] and [l2 l2 l3 l3], the factors of
// the real and imaginary parts of z's four points.
TEXT ·scaleRowAsm(SB), NOSPLIT, $0-40
	MOVQ         row+0(FP), DI
	MOVQ         z+8(FP), SI
	MOVQ         l+16(FP), DX
	MOVQ         n+24(FP), CX
	VBROADCASTSD norm+32(FP), Y15

scale:
	VMOVUPD (DX), Y0
	VPERMPD $0x50, Y0, Y1
	VPERMPD $0xfa, Y0, Y2
	VMOVUPD (SI), Y3
	VMOVUPD 32(SI), Y4
	VMULPD  Y1, Y3, Y3
	VMULPD  Y2, Y4, Y4
	VMULPD  Y15, Y3, Y3
	VMULPD  Y15, Y4, Y4
	VMOVUPD Y3, (DI)
	VMOVUPD Y4, 32(DI)
	ADDQ    $32, DX
	ADDQ    $64, SI
	ADDQ    $64, DI
	SUBQ    $4, CX
	JNZ     scale
	VZEROUPPER
	RET
