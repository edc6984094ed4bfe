#include "textflag.h"

// AVX2 microkernel of the LUT gather GEMM (lut_gather.go). Each YMM
// lane holds the int32 accumulator of one output pixel of one channel.
// Per tap it widens the lanes' activation codes to dwords, gathers each
// channel's products from that channel's 256-entry row of the
// transposed multiplier table, keeps the low 16 bits (the product;
// the high half is the next table entry) and adds. Integer addition is
// exact and order-free, so the sums equal the Go microkernel's bit for bit.

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

// ROWBASE points R14 at the table row of the weight code at addr:
// lutT + code*256*2 bytes.
#define ROWBASE(addr) \
	MOVBQZX addr, R14; \
	SHLQ    $9, R14; \
	ADDQ    R12, R14

// GATHER loads the products of the row at R14 for the activation
// codes in idx into dst, through a fresh all-ones mask (the gather
// clears it) into a zeroed dst (no dependency on its old value), keeps
// their low 16 bits and adds them to acc.
#define GATHER(idx, mask, dst, acc) \
	VPXOR      dst, dst, dst; \
	VPCMPEQD   mask, mask, mask; \
	VPGATHERDD mask, (R14)(idx*2), dst; \
	VPAND      Y14, dst, dst; \
	VPADDD     dst, acc, acc

// ROW2 accumulates one channel over a 16-lane block (codes in Y8 and
// Y9), ROW1 over an 8-lane block (codes in Y8).
#define ROW2(addr, acc0, acc1) \
	ROWBASE(addr); \
	GATHER(Y8, Y12, Y10, acc0); \
	GATHER(Y9, Y13, Y11, acc1)

#define ROW1(addr, acc0) \
	ROWBASE(addr); \
	GATHER(Y8, Y12, Y10, acc0)

// Channel r's weight code for the current tap sits at R8 + r*wRow:
// R9 = wRow, R10 = 2*wRow and R11 = 3*wRow. TAP16LO loads a 16-lane
// block's codes and accumulates channels 0 and 1, TAP16HI channels 2
// and 3; TAP8LO and TAP8HI do the same for an 8-lane block.
#define TAP16LO \
	VPMOVZXBD (SI), Y8; \
	VPMOVZXBD 8(SI), Y9; \
	ROW2((R8), Y0, Y1); \
	ROW2((R8)(R9*1), Y2, Y3)

#define TAP16HI \
	ROW2((R8)(R10*1), Y4, Y5); \
	ROW2((R8)(R11*1), Y6, Y7)

#define TAP8LO \
	VPMOVZXBD (SI), Y8; \
	ROW1((R8), Y0); \
	ROW1((R8)(R9*1), Y2)

#define TAP8HI \
	ROW1((R8)(R10*1), Y4); \
	ROW1((R8)(R11*1), Y6)

// NEXTTAP steps to the next tap: the next weight code of each channel
// and the next column row.
#define NEXTTAP \
	INCQ R8; \
	ADDQ R13, SI

// TAILMASK loads the store masks of a DX-lane tail (Y12 for lanes
// [0, DX), Y13 for lanes [8, DX)) and sets R14 = 3*ldAcc bytes.
#define TAILMASK \
	LEAQ    laneMask<>+64(SB), SI; \
	MOVQ    DX, CX; \
	SHLQ    $2, CX; \
	SUBQ    CX, SI; \
	VMOVDQU (SI), Y12; \
	VMOVDQU 32(SI), Y13; \
	LEAQ    (AX)(AX*2), R14

// func lutGather4AVX2(acc *int32, ldAcc int, cols *uint8, ldCols int, w *uint8, wRow int, lutT *uint16, kk, n, rows int)
//
// For channels r < rows (2 or 4) and lanes j < n:
//
//	acc[r*ldAcc+j] = Σ_{q<kk} lutT[w[r*wRow+q]<<8 | cols[q*ldCols+j]]
//
// overwriting acc. kk must be at least 1. Lanes run in blocks of 16
// (two YMM per channel, up to eight accumulators); the last n%16 run
// as one 16-lane block or, for 8 or fewer, one 8-lane block, stored
// through a lane mask. Those tail blocks read up to 15 column bytes
// past lane n-1 (their products land in lanes that are never stored),
// and each gather reads 4 bytes at a 2-byte table offset, so lutT must
// have one uint16 of capacity past its 65536 entries. A 2-channel call
// skips channels 2 and 3 with one predictable branch per tap.
TEXT ·lutGather4AVX2(SB), NOSPLIT, $0-80
	MOVQ acc+0(FP), DI
	MOVQ ldAcc+8(FP), AX
	SHLQ $2, AX
	MOVQ cols+16(FP), BX
	MOVQ ldCols+24(FP), R13
	MOVQ wRow+40(FP), R9
	LEAQ (R9)(R9*1), R10
	LEAQ (R10)(R9*1), R11
	MOVQ lutT+48(FP), R12
	MOVQ n+64(FP), DX

	// Y14 keeps the low 16 bits of each dword.
	VPCMPEQD Y14, Y14, Y14
	VPSRLD   $16, Y14, Y14

block16:
	CMPQ  DX, $16
	JLT   tail
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	VPXOR Y4, Y4, Y4
	VPXOR Y5, Y5, Y5
	VPXOR Y6, Y6, Y6
	VPXOR Y7, Y7, Y7
	MOVQ  w+32(FP), R8
	MOVQ  BX, SI
	MOVQ  kk+56(FP), CX

loop16:
	TAP16LO
	CMPQ rows+72(FP), $2
	JEQ  next16
	TAP16HI

next16:
	NEXTTAP
	DECQ CX
	JNZ  loop16

	VMOVDQU Y0, (DI)
	VMOVDQU Y1, 32(DI)
	VMOVDQU Y2, (DI)(AX*1)
	VMOVDQU Y3, 32(DI)(AX*1)
	CMPQ    rows+72(FP), $2
	JEQ     stored16
	LEAQ    (AX)(AX*2), R14 // 3*ldAcc, bytes
	VMOVDQU Y4, (DI)(AX*2)
	VMOVDQU Y5, 32(DI)(AX*2)
	VMOVDQU Y6, (DI)(R14*1)
	VMOVDQU Y7, 32(DI)(R14*1)

stored16:
	ADDQ $64, DI
	ADDQ $16, BX
	SUBQ $16, DX
	JMP  block16

tail:
	TESTQ DX, DX
	JZ    done
	VPXOR Y0, Y0, Y0
	VPXOR Y2, Y2, Y2
	VPXOR Y4, Y4, Y4
	VPXOR Y6, Y6, Y6
	MOVQ  w+32(FP), R8
	MOVQ  BX, SI
	MOVQ  kk+56(FP), CX
	CMPQ  DX, $8
	JLE   loop8

	VPXOR Y1, Y1, Y1
	VPXOR Y3, Y3, Y3
	VPXOR Y5, Y5, Y5
	VPXOR Y7, Y7, Y7

loop16m:
	TAP16LO
	CMPQ rows+72(FP), $2
	JEQ  next16m
	TAP16HI

next16m:
	NEXTTAP
	DECQ CX
	JNZ  loop16m

	TAILMASK
	VPMASKMOVD Y0, Y12, (DI)
	VPMASKMOVD Y1, Y13, 32(DI)
	VPMASKMOVD Y2, Y12, (DI)(AX*1)
	VPMASKMOVD Y3, Y13, 32(DI)(AX*1)
	CMPQ       rows+72(FP), $2
	JEQ        done
	VPMASKMOVD Y4, Y12, (DI)(AX*2)
	VPMASKMOVD Y5, Y13, 32(DI)(AX*2)
	VPMASKMOVD Y6, Y12, (DI)(R14*1)
	VPMASKMOVD Y7, Y13, 32(DI)(R14*1)
	JMP        done

loop8:
	TAP8LO
	CMPQ rows+72(FP), $2
	JEQ  next8
	TAP8HI

next8:
	NEXTTAP
	DECQ CX
	JNZ  loop8

	TAILMASK
	VPMASKMOVD Y0, Y12, (DI)
	VPMASKMOVD Y2, Y12, (DI)(AX*1)
	CMPQ       rows+72(FP), $2
	JEQ        done
	VPMASKMOVD Y4, Y12, (DI)(AX*2)
	VPMASKMOVD Y6, Y12, (DI)(R14*1)

done:
	VZEROUPPER
	RET

// func colSumsAVX2(sum *int32, cols *uint8, ld, kk, n int)
//
// For lanes j < n: sum[j] = Σ_{q<kk} cols[q*ld+j], the per-pixel code
// sums of the zero-point correction. kk must be at least 1. Lanes run
// in blocks of 16; the last n%16 run as one masked block that reads up
// to 15 column bytes past lane n-1, as in lutGather4AVX2.
TEXT ·colSumsAVX2(SB), NOSPLIT, $0-40
	MOVQ sum+0(FP), DI
	MOVQ cols+8(FP), BX
	MOVQ ld+16(FP), R13
	MOVQ n+32(FP), DX

csblock:
	TESTQ DX, DX
	JZ    csdone
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	MOVQ  BX, SI
	MOVQ  kk+24(FP), CX

csloop:
	VPMOVZXBD (SI), Y2
	VPMOVZXBD 8(SI), Y3
	VPADDD    Y2, Y0, Y0
	VPADDD    Y3, Y1, Y1
	ADDQ      R13, SI
	DECQ      CX
	JNZ       csloop

	CMPQ    DX, $16
	JLT     cstail
	VMOVDQU Y0, (DI)
	VMOVDQU Y1, 32(DI)
	ADDQ    $64, DI
	ADDQ    $16, BX
	SUBQ    $16, DX
	JMP     csblock

cstail:
	LEAQ       laneMask<>+64(SB), SI
	MOVQ       DX, CX
	SHLQ       $2, CX
	SUBQ       CX, SI
	VMOVDQU    (SI), Y12
	VMOVDQU    32(SI), Y13
	VPMASKMOVD Y0, Y12, (DI)
	VPMASKMOVD Y1, Y13, 32(DI)

csdone:
	VZEROUPPER
	RET
