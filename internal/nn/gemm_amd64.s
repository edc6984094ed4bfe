#include "textflag.h"

// AVX2 microkernel of the lane GEMM (gemm_lanes.go). Each YMM lane
// holds one output c[r][j] and reduces it in ascending q from +0 with
// a separate VMULPS and VADDPS per step (never VFMADD*: a fused
// multiply-add rounds once and would change bytes), then adds the
// row's bias, exactly as the Go microkernel and the reference loops do.

// Lane masks: 16 all-ones words, then 16 zero words. The 32 bytes at
// laneMask<>+4*(16-r) enable lanes [0, r) of one YMM register; the 32
// bytes after them, lanes [8, r) of the next.
DATA laneMask<>+0(SB)/8, $0xffffffffffffffff
DATA laneMask<>+8(SB)/8, $0xffffffffffffffff
DATA laneMask<>+16(SB)/8, $0xffffffffffffffff
DATA laneMask<>+24(SB)/8, $0xffffffffffffffff
DATA laneMask<>+32(SB)/8, $0xffffffffffffffff
DATA laneMask<>+40(SB)/8, $0xffffffffffffffff
DATA laneMask<>+48(SB)/8, $0xffffffffffffffff
DATA laneMask<>+56(SB)/8, $0xffffffffffffffff
DATA laneMask<>+64(SB)/8, $0
DATA laneMask<>+72(SB)/8, $0
DATA laneMask<>+80(SB)/8, $0
DATA laneMask<>+88(SB)/8, $0
DATA laneMask<>+96(SB)/8, $0
DATA laneMask<>+104(SB)/8, $0
DATA laneMask<>+112(SB)/8, $0
DATA laneMask<>+120(SB)/8, $0
GLOBL laneMask<>(SB), RODATA|NOPTR, $128

// MAC adds a*b to acc: the product into Y11, then the sum.
#define MAC(a, b, acc) \
	VMULPS b, a, Y11; \
	VADDPS Y11, acc, acc

// ROW2 broadcasts row r's operand a[r][q] (at addr) into Y10 and
// accumulates it against the loaded b lanes of a 16-lane block: Y8
// into acc0, Y9 into acc1. ROW1 does the same for an 8-lane block.
#define ROW2(addr, acc0, acc1) \
	VBROADCASTSS addr, Y10; \
	MAC(Y10, Y8, acc0); \
	MAC(Y10, Y9, acc1)

#define ROW1(addr, acc0) \
	VBROADCASTSS addr, Y10; \
	MAC(Y10, Y8, acc0)

// Row r's a[r][q] sits at R8 + r*aRow: R9 = aRow, R10 = 2*aRow and
// R11 = 3*aRow (bytes).
#define ROWS16 \
	ROW2((R8), Y0, Y1); \
	ROW2((R8)(R9*1), Y2, Y3); \
	ROW2((R8)(R10*1), Y4, Y5); \
	ROW2((R8)(R11*1), Y6, Y7)

#define ROWS8 \
	ROW1((R8), Y0); \
	ROW1((R8)(R9*1), Y2); \
	ROW1((R8)(R10*1), Y4); \
	ROW1((R8)(R11*1), Y6)

// BIAS16 adds bias[0..3] (at SI) to the accumulators of a 16-lane
// block, BIAS8 to those of an 8-lane block.
#define BIAS16 \
	VBROADCASTSS (SI), Y10; \
	VADDPS Y10, Y0, Y0; \
	VADDPS Y10, Y1, Y1; \
	VBROADCASTSS 4(SI), Y10; \
	VADDPS Y10, Y2, Y2; \
	VADDPS Y10, Y3, Y3; \
	VBROADCASTSS 8(SI), Y10; \
	VADDPS Y10, Y4, Y4; \
	VADDPS Y10, Y5, Y5; \
	VBROADCASTSS 12(SI), Y10; \
	VADDPS Y10, Y6, Y6; \
	VADDPS Y10, Y7, Y7

#define BIAS8 \
	VBROADCASTSS (SI), Y10; \
	VADDPS Y10, Y0, Y0; \
	VBROADCASTSS 4(SI), Y10; \
	VADDPS Y10, Y2, Y2; \
	VBROADCASTSS 8(SI), Y10; \
	VADDPS Y10, Y4, Y4; \
	VBROADCASTSS 12(SI), Y10; \
	VADDPS Y10, Y6, Y6

// func gemm4AVX2(c *float32, ldc int, a *float32, aRow, aStep int, b *float32, ldb int, bias *float32, k, n int)
//
// For rows r < 4 and lanes j < n:
//
//	c[r*ldc+j] = (Σ_{q<k} a[r*aRow+q*aStep] * b[q*ldb+j]) + bias[r]
//
// with the sum reduced in ascending q from +0 and a nil bias adding
// nothing. k must be at least 1. Lanes run in blocks of 16 (two YMM
// per row, eight accumulators); the last n%16 go through masked loads
// and stores, as one 16-lane block or, for 8 or fewer, one 8-lane
// block. Masked-off lanes are neither read nor written.
TEXT ·gemm4AVX2(SB), NOSPLIT, $0-80
	MOVQ c+0(FP), DI
	MOVQ ldc+8(FP), AX
	SHLQ $2, AX
	MOVQ aRow+24(FP), R9
	SHLQ $2, R9
	LEAQ (R9)(R9*1), R10
	LEAQ (R10)(R9*1), R11
	MOVQ aStep+32(FP), R12
	SHLQ $2, R12
	MOVQ b+40(FP), BX
	MOVQ ldb+48(FP), R13
	SHLQ $2, R13
	MOVQ n+72(FP), DX
	LEAQ (AX)(AX*2), R14 // 3*ldc, bytes

block16:
	CMPQ DX, $16
	JLT  tail
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	MOVQ a+16(FP), R8
	MOVQ BX, SI
	MOVQ k+64(FP), CX

loop16:
	VMOVUPS (SI), Y8
	VMOVUPS 32(SI), Y9
	ROWS16
	ADDQ R12, R8
	ADDQ R13, SI
	DECQ CX
	JNZ  loop16

	MOVQ bias+56(FP), SI
	TESTQ SI, SI
	JZ   store16
	BIAS16

store16:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, (DI)(AX*1)
	VMOVUPS Y3, 32(DI)(AX*1)
	VMOVUPS Y4, (DI)(AX*2)
	VMOVUPS Y5, 32(DI)(AX*2)
	VMOVUPS Y6, (DI)(R14*1)
	VMOVUPS Y7, 32(DI)(R14*1)
	ADDQ $64, DI
	ADDQ $64, BX
	SUBQ $16, DX
	JMP  block16

tail:
	TESTQ DX, DX
	JZ    done
	// Y12 and Y13 enable lanes [0, DX) of the block.
	LEAQ laneMask<>+64(SB), SI
	MOVQ DX, CX
	SHLQ $2, CX
	SUBQ CX, SI
	VMOVDQU (SI), Y12
	VMOVDQU 32(SI), Y13
	VXORPS  Y0, Y0, Y0
	VXORPS  Y2, Y2, Y2
	VXORPS  Y4, Y4, Y4
	VXORPS  Y6, Y6, Y6
	MOVQ    a+16(FP), R8
	MOVQ    BX, SI
	MOVQ    k+64(FP), CX
	CMPQ    DX, $8
	JLE     loop8

	VXORPS Y1, Y1, Y1
	VXORPS Y3, Y3, Y3
	VXORPS Y5, Y5, Y5
	VXORPS Y7, Y7, Y7

loop16m:
	VMASKMOVPS (SI), Y12, Y8
	VMASKMOVPS 32(SI), Y13, Y9
	ROWS16
	ADDQ R12, R8
	ADDQ R13, SI
	DECQ CX
	JNZ  loop16m

	MOVQ bias+56(FP), SI
	TESTQ SI, SI
	JZ   store16m
	BIAS16

store16m:
	VMASKMOVPS Y0, Y12, (DI)
	VMASKMOVPS Y1, Y13, 32(DI)
	VMASKMOVPS Y2, Y12, (DI)(AX*1)
	VMASKMOVPS Y3, Y13, 32(DI)(AX*1)
	VMASKMOVPS Y4, Y12, (DI)(AX*2)
	VMASKMOVPS Y5, Y13, 32(DI)(AX*2)
	VMASKMOVPS Y6, Y12, (DI)(R14*1)
	VMASKMOVPS Y7, Y13, 32(DI)(R14*1)
	JMP        done

loop8:
	VMASKMOVPS (SI), Y12, Y8
	ROWS8
	ADDQ R12, R8
	ADDQ R13, SI
	DECQ CX
	JNZ  loop8

	MOVQ bias+56(FP), SI
	TESTQ SI, SI
	JZ   store8
	BIAS8

store8:
	VMASKMOVPS Y0, Y12, (DI)
	VMASKMOVPS Y2, Y12, (DI)(AX*1)
	VMASKMOVPS Y4, Y12, (DI)(AX*2)
	VMASKMOVPS Y6, Y12, (DI)(R14*1)

done:
	VZEROUPPER
	RET
