//go:build amd64

#include "textflag.h"

// pairIdx is the VPERMPD index vector that spreads cycles 0 and 1 of
// a load over the low and high ZMM halves; adding 2b to it selects
// cycles 2b and 2b+1 instead.
DATA pairIdx<>+0(SB)/8, $0
DATA pairIdx<>+8(SB)/8, $0
DATA pairIdx<>+16(SB)/8, $0
DATA pairIdx<>+24(SB)/8, $0
DATA pairIdx<>+32(SB)/8, $1
DATA pairIdx<>+40(SB)/8, $1
DATA pairIdx<>+48(SB)/8, $1
DATA pairIdx<>+56(SB)/8, $1
GLOBL pairIdx<>(SB), RODATA|NOPTR, $64

// func expand4AvgAVX512(dst, cycles, z *float64, nPairs, stride, avg int, shape8 *float64, baseline, sigma, scale float64)
//
// One pass per averaged acquisition at four samples per cycle. A block
// is eight samples (two cycles); the main loop renders four independent
// blocks per iteration, so the repetition chain of one block overlaps
// the other three, and the tail loop renders the last nPairs mod 4
// blocks one at a time. Per block:
//
//	sig = baseline + (p-baseline)*shape  (VSUBPD, VPERMPD, VMULPD, VADDPD)
//	acc = sig + z₀*sigma                 (VMULPD, VADDPD)
//	acc = acc + (sig + z_r*sigma)        (r = 1..avg-1)
//	acc = acc*scale                      (only when avg > 1)
//
// where repetition r's noise z_r lies r·stride bytes past z₀, with no
// fused multiply-add anywhere: the identical rounding sequence
// of expandNormGeneric. The subtraction runs on the loaded cycle powers
// before VPERMPD copies them into place, which changes no bits. At avg
// 1 the repetition loop and the scale are both jumped over.
TEXT ·expand4AvgAVX512(SB), NOSPLIT, $0-80
	MOVQ         dst+0(FP), DI
	MOVQ         cycles+8(FP), SI
	MOVQ         z+16(FP), DX
	MOVQ         nPairs+24(FP), CX
	MOVQ         stride+32(FP), R9
	MOVQ         avg+40(FP), R10
	DECQ         R10
	MOVQ         shape8+48(FP), R8
	VBROADCASTSD baseline+56(FP), Z5
	VBROADCASTSD sigma+64(FP), Z6
	VMOVUPD      (R8), Z7
	VBROADCASTSD scale+72(FP), Z8
	VMOVDQU64    pairIdx<>(SB), Z20
	MOVQ         $2, AX
	VPBROADCASTQ AX, Z24
	VPADDQ       Z24, Z20, Z21
	VPADDQ       Z24, Z21, Z22
	VPADDQ       Z24, Z22, Z23
	CMPQ         CX, $4
	JLT          tail

quad:
	// Signals of the four blocks: eight cycle powers less the baseline,
	// spread pairwise, times the shape, plus the baseline.
	VMOVUPD (SI), Z9
	VSUBPD  Z5, Z9, Z9
	VPERMPD Z9, Z20, Z0
	VPERMPD Z9, Z21, Z1
	VPERMPD Z9, Z22, Z2
	VPERMPD Z9, Z23, Z3
	VMULPD  Z7, Z0, Z0
	VMULPD  Z7, Z1, Z1
	VMULPD  Z7, Z2, Z2
	VMULPD  Z7, Z3, Z3
	VADDPD  Z5, Z0, Z0
	VADDPD  Z5, Z1, Z1
	VADDPD  Z5, Z2, Z2
	VADDPD  Z5, Z3, Z3

	// Repetition 0.
	VMULPD (DX), Z6, Z10
	VMULPD 64(DX), Z6, Z11
	VMULPD 128(DX), Z6, Z12
	VMULPD 192(DX), Z6, Z13
	VADDPD Z10, Z0, Z10
	VADDPD Z11, Z1, Z11
	VADDPD Z12, Z2, Z12
	VADDPD Z13, Z3, Z13
	MOVQ   R10, R11
	TESTQ  R11, R11
	JZ     quadstore
	LEAQ   (DX)(R9*1), R12

quadrep:
	VMULPD (R12), Z6, Z14
	VMULPD 64(R12), Z6, Z15
	VMULPD 128(R12), Z6, Z16
	VMULPD 192(R12), Z6, Z17
	VADDPD Z14, Z0, Z14
	VADDPD Z15, Z1, Z15
	VADDPD Z16, Z2, Z16
	VADDPD Z17, Z3, Z17
	VADDPD Z14, Z10, Z10
	VADDPD Z15, Z11, Z11
	VADDPD Z16, Z12, Z12
	VADDPD Z17, Z13, Z13
	ADDQ   R9, R12
	DECQ   R11
	JNZ    quadrep
	VMULPD Z8, Z10, Z10
	VMULPD Z8, Z11, Z11
	VMULPD Z8, Z12, Z12
	VMULPD Z8, Z13, Z13

quadstore:
	VMOVUPD Z10, (DI)
	VMOVUPD Z11, 64(DI)
	VMOVUPD Z12, 128(DI)
	VMOVUPD Z13, 192(DI)
	ADDQ    $64, SI
	ADDQ    $256, DX
	ADDQ    $256, DI
	SUBQ    $4, CX
	CMPQ    CX, $4
	JGE     quad

tail:
	TESTQ CX, CX
	JZ    done

one:
	VMOVUPD (SI), X9
	VSUBPD  X5, X9, X9
	VPERMPD Z9, Z20, Z0
	VMULPD  Z7, Z0, Z0
	VADDPD  Z5, Z0, Z0
	VMULPD  (DX), Z6, Z10
	VADDPD  Z10, Z0, Z10
	MOVQ    R10, R11
	TESTQ   R11, R11
	JZ      onestore
	LEAQ    (DX)(R9*1), R12

onerep:
	VMULPD (R12), Z6, Z14
	VADDPD Z14, Z0, Z14
	VADDPD Z14, Z10, Z10
	ADDQ   R9, R12
	DECQ   R11
	JNZ    onerep
	VMULPD Z8, Z10, Z10

onestore:
	VMOVUPD Z10, (DI)
	ADDQ    $16, SI
	ADDQ    $64, DX
	ADDQ    $64, DI
	DECQ    CX
	JNZ     one

done:
	VZEROUPPER
	RET
