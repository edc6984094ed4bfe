#include "textflag.h"

// func hasAVX2() bool
//
// Reports whether the CPU has AVX2 and the OS saves YMM state: CPUID
// leaf 1 OSXSAVE (ECX bit 27) and AVX (bit 28), XCR0 bits 1-2 (SSE
// and AVX state enabled), and CPUID leaf 7 AVX2 (EBX bit 5).
TEXT ·hasAVX2(SB), NOSPLIT, $0-1
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JLT  no
	MOVL $1, AX
	XORL CX, CX
	CPUID
	MOVL CX, R8
	ANDL $0x18000000, R8
	CMPL R8, $0x18000000
	JNE  no
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no
	MOVL $7, AX
	XORL CX, CX
	CPUID
	ANDL $0x20, BX
	JZ   no
	MOVB $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET
