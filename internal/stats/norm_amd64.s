//go:build !race

#include "textflag.h"

// The kernel's constants, each broadcast to the four lanes of a Y
// register. 0x4330000080000000 serves twice: XORed into the zero-extended
// 32-bit j it makes the double 2^52 + j + 2^31, and as a double it is
// 2^52 + 2^31, so one subtraction leaves float64(j) exactly.
DATA normConsts<>+0(SB)/8, $0x7f
DATA normConsts<>+8(SB)/8, $0xffffffff
DATA normConsts<>+16(SB)/8, $0x4330000080000000
DATA normConsts<>+24(SB)/8, $0x7fffffffffffffff
GLOBL normConsts<>(SB), RODATA|NOPTR, $32

// func normFillAsm(vec *[rngLen]int64, dst *float64, recs *normRec, run *normRun)
//
// BX counts down 4 × the groups left. With f = run.feed − 4·run.groups
// and t = run.tap − 4·run.groups, the group at BX steps the words
// vec[f+BX−4 .. f+BX−1] by vec[t+BX−4 .. t+BX−1], R9 and R8 pointing at
// vec[f] and vec[t]; a Y register holds them with draw 0, the word at
// the highest index, in lane 3.
TEXT ·normFillAsm(SB), NOSPLIT, $0-32
	MOVQ vec+0(FP), DI
	MOVQ dst+8(FP), SI
	MOVQ recs+16(FP), R11
	MOVQ run+24(FP), AX
	MOVQ 16(AX), BX
	SHLQ $2, BX
	MOVQ 0(AX), R8
	SUBQ BX, R8
	LEAQ (DI)(R8*8), R8
	MOVQ 8(AX), R9
	SUBQ BX, R9
	LEAQ (DI)(R9*8), R9
	LEAQ ·normStrips(SB), CX
	MOVQ ·normCarries(SB), DI
	LEAQ ·normGroups(SB), DX
	XORQ R10, R10                  // slots written
	XORQ R12, R12                  // groups listed
	XORQ R13, R13                  // the next key's bit 4
	VPBROADCASTQ normConsts<>+0(SB), Y15
	VPBROADCASTQ normConsts<>+8(SB), Y14
	VPBROADCASTQ normConsts<>+16(SB), Y13
	VPBROADCASTQ normConsts<>+24(SB), Y12
	VPXOR        Y10, Y10, Y10           // zero
	VPCMPEQD     Y9, Y9, Y9              // the gathers' mask
	TESTQ        BX, BX
	JZ           done
	PCALIGN      $32

group:
	// The four words: feed += tap, stored only once the group is taken.
	VMOVDQU -32(R8)(BX*8), Y0
	VPADDQ  -32(R9)(BX*8), Y0, Y0

	// j = bits 31..62 of each word, in the low half of its lane; i = j & 0x7F.
	VPSRLQ $31, Y0, Y1
	VPAND  Y15, Y1, Y2

	// kn[i] and wn[i] as doubles. A gather clears its mask.
	VMOVDQU    Y9, Y3
	VGATHERQPD Y3, (CX)(Y2*8), Y4
	VMOVDQU    Y9, Y3
	VGATHERQPD Y3, 1024(CX)(Y2*8), Y5

	// float64(j), exactly.
	VPAND  Y14, Y1, Y6
	VPXOR  Y13, Y6, Y6
	VSUBPD Y13, Y6, Y6

	// The fast test fails where |j| >= kn[i]: AX bit L for lane L.
	VANDPD    Y12, Y6, Y7
	VCMPPD    $5, Y4, Y7, Y7
	VMOVMSKPD Y7, AX

	// A lane that fails in strip 0, a tail, ends the run before this group.
	VPCMPEQQ  Y10, Y2, Y8
	VMOVMSKPD Y8, R14
	TESTL     AX, R14
	JNZ       done

	VMOVDQU Y0, -32(R9)(BX*8)
	VMULPD  Y5, Y6, Y6

	// The group's key picks its row and the next key's bit 4. The group
	// is written to the list whatever it holds; the row's list counts it
	// only if it opens a wedge.
	ORL     R13, AX
	SHRXQ   AX, DI, R13
	ANDL    $16, R13
	LEAQ    (AX)(BX*8), R14
	MOVL    R14, (R11)(R12*8)
	MOVL    R10, 4(R11)(R12*8)
	SHLL    $6, AX
	VMOVDQU (DX)(AX*1), Y8
	VPERMD  Y6, Y8, Y6
	VMOVUPD Y6, (SI)(R10*8)
	ADDQ    32(DX)(AX*1), R10
	ADDQ    40(DX)(AX*1), R12
	SUBQ    $4, BX
	JNZ     group

done:
	MOVQ run+24(FP), AX
	MOVQ BX, 24(AX)
	MOVQ R10, 32(AX)
	MOVQ R12, 40(AX)
	MOVQ R13, 48(AX)
	VZEROUPPER
	RET
