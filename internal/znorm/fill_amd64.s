//go:build amd64

#include "go_asm.h"
#include "textflag.h"

// func windowAVX512(w *window, s uint64, steps int)
//
// Eight stream positions per step, one per qword lane. Lane k of step
// t holds the state s + (8t+k+1)·γ and runs the SplitMix64 output mix
// on it (VPSRLQ, VPXORQ, VPMULLQ ×2). j is the top 32 bits of the mix,
// sign-extended (VPSRAQ); i = j & 0x7f indexes one VPGATHERQQ of the
// packed table knwn (kn low, wn high). The value float64(j)·wn[i] is
// VCVTQQ2PD, VCVTPS2PD and one VMULPD — the rounding of Norm's
// float64(j) * float64(wn[i]) — stored to w.vals. The hit mask
// |j| < kn[i] is one unsigned VPCMPUQ of VPABSQ(j) against kn, stored
// as one byte of w.hits. No lane ever exits: misses are the walker's.
TEXT ·windowAVX512(SB), NOSPLIT, $0-24
	MOVQ          w+0(FP), DI
	MOVQ          s+8(FP), AX
	MOVQ          steps+16(FP), CX
	LEAQ          window_hits(DI), SI
	LEAQ          ·knwn(SB), R8

	VPBROADCASTQ  AX, Z0
	VPADDQ        ·laneGamma(SB), Z0, Z0 // lane k: s + (k+1)·γ
	VPBROADCASTQ  ·laneGamma+56(SB), Z1  // one step: 8·γ
	MOVQ          $0xBF58476D1CE4E5B9, AX
	VPBROADCASTQ  AX, Z2
	MOVQ          $0x94D049BB133111EB, AX
	VPBROADCASTQ  AX, Z3
	MOVQ          $0x7f, AX
	VPBROADCASTQ  AX, Z4
	MOVQ          $0xffffffff, AX
	VPBROADCASTQ  AX, Z5

loop:
	VPSRLQ        $30, Z0, Z6
	VPXORQ        Z0, Z6, Z6
	VPMULLQ       Z2, Z6, Z6
	VPSRLQ        $27, Z6, Z7
	VPXORQ        Z6, Z7, Z6
	VPMULLQ       Z3, Z6, Z6
	VPSRLQ        $31, Z6, Z7
	VPXORQ        Z6, Z7, Z6
	VPSRAQ        $32, Z6, Z7            // j
	VPANDQ        Z4, Z7, Z8             // i = j & 0x7f
	KXNORB        K1, K1, K1
	VPGATHERQQ    (R8)(Z8*8), K1, Z9     // knwn[i]
	VPANDQ        Z5, Z9, Z10            // kn[i]
	VPSRLQ        $32, Z9, Z11
	VPMOVQD       Z11, Y11
	VCVTPS2PD     Y11, Z11               // float64(wn[i])
	VCVTQQ2PD     Z7, Z12                // float64(j)
	VMULPD        Z11, Z12, Z12
	VMOVUPD       Z12, (DI)
	VPABSQ        Z7, Z13
	VPCMPUQ       $1, Z10, Z13, K2       // |j| < kn[i]
	KMOVB         K2, AX
	MOVB          AX, (SI)
	VPADDQ        Z1, Z0, Z0
	ADDQ          $64, DI
	INCQ          SI
	DECQ          CX
	JNZ           loop
	VZEROUPPER
	RET
