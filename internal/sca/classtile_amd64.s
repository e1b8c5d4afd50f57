//go:build amd64

#include "textflag.h"

// CLOSE turns accumulator acc (Σh·t) into the correlation
// (n·acc − Σh·Σt) / (√h·√t), or +0 where √h·√t is 0 or NaN — the
// expressions of pearson, one rounding per operation. Z16 holds n, Z25
// Σh and Z26 √h of the hypothesis, st and rt the tile's Σt and √t, and
// Z29 zero; Z27, Z28 and K1 are scratch.
#define CLOSE(acc, st, rt) \
	VMULPD   Z16, acc, acc;        \
	VMULPD   st, Z25, Z27;         \
	VSUBPD   Z27, acc, acc;        \
	VMULPD   rt, Z26, Z28;         \
	VCMPPD   $0x0c, Z29, Z28, K1;  \
	VDIVPD.Z Z28, acc, K1, acc

// func classTileAVX512(out, tile, coef *float64, offs *int, nc int, sumH, rootH, sumT, rootT *float64, n float64)
//
// Four hypotheses × 32 samples of correlation. First Σh·t: out[j*32+s]
// = Σ_i coef[offs[i]+j]·tile[i*32+s] for j in [0,4), s in [0,32), held
// in sixteen ZMM accumulators (Z0-Z15, hypothesis j in Z4j..Z4j+3) that
// start from +0. Each class step broadcasts the quad's four
// coefficients, loads the class's 32 samples, and per element performs
// one VMULPD then one VADDPD — never a fused multiply-add — so every
// sum is the serial chain ((+0 + h0·S0) + h1·S1) + … in class order.
// Then CLOSE turns each sum into its correlation with hypothesis j's
// sumH[j], rootH[j] and the tile's sumT, rootT (32 samples each), all
// bit-identical to classTileGeneric.
TEXT ·classTileAVX512(SB), NOSPLIT, $0-80
	MOVQ out+0(FP), DI
	MOVQ tile+8(FP), SI
	MOVQ coef+16(FP), R8
	MOVQ offs+24(FP), R9
	MOVQ nc+32(FP), CX

	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	VPXORQ Z8, Z8, Z8
	VPXORQ Z9, Z9, Z9
	VPXORQ Z10, Z10, Z10
	VPXORQ Z11, Z11, Z11
	VPXORQ Z12, Z12, Z12
	VPXORQ Z13, Z13, Z13
	VPXORQ Z14, Z14, Z14
	VPXORQ Z15, Z15, Z15

	TESTQ CX, CX
	JZ    close

loop:
	MOVQ         (R9), AX
	VBROADCASTSD (R8)(AX*8), Z16
	VBROADCASTSD 8(R8)(AX*8), Z17
	VBROADCASTSD 16(R8)(AX*8), Z18
	VBROADCASTSD 24(R8)(AX*8), Z19
	VMOVUPD      (SI), Z20
	VMOVUPD      64(SI), Z21
	VMOVUPD      128(SI), Z22
	VMOVUPD      192(SI), Z23

	VMULPD Z20, Z16, Z24
	VMULPD Z21, Z16, Z25
	VMULPD Z22, Z16, Z26
	VMULPD Z23, Z16, Z27
	VMULPD Z20, Z17, Z28
	VMULPD Z21, Z17, Z29
	VMULPD Z22, Z17, Z30
	VMULPD Z23, Z17, Z31
	VADDPD Z24, Z0, Z0
	VADDPD Z25, Z1, Z1
	VADDPD Z26, Z2, Z2
	VADDPD Z27, Z3, Z3
	VADDPD Z28, Z4, Z4
	VADDPD Z29, Z5, Z5
	VADDPD Z30, Z6, Z6
	VADDPD Z31, Z7, Z7

	VMULPD Z20, Z18, Z24
	VMULPD Z21, Z18, Z25
	VMULPD Z22, Z18, Z26
	VMULPD Z23, Z18, Z27
	VMULPD Z20, Z19, Z28
	VMULPD Z21, Z19, Z29
	VMULPD Z22, Z19, Z30
	VMULPD Z23, Z19, Z31
	VADDPD Z24, Z8, Z8
	VADDPD Z25, Z9, Z9
	VADDPD Z26, Z10, Z10
	VADDPD Z27, Z11, Z11
	VADDPD Z28, Z12, Z12
	VADDPD Z29, Z13, Z13
	VADDPD Z30, Z14, Z14
	VADDPD Z31, Z15, Z15

	ADDQ $256, SI
	ADDQ $8, R9
	DECQ CX
	JNZ  loop

close:
	VBROADCASTSD n+72(FP), Z16
	MOVQ         sumH+40(FP), R10
	MOVQ         rootH+48(FP), R11
	MOVQ         sumT+56(FP), R12
	MOVQ         rootT+64(FP), R13
	VMOVUPD      (R12), Z17
	VMOVUPD      64(R12), Z18
	VMOVUPD      128(R12), Z19
	VMOVUPD      192(R12), Z20
	VMOVUPD      (R13), Z21
	VMOVUPD      64(R13), Z22
	VMOVUPD      128(R13), Z23
	VMOVUPD      192(R13), Z24
	VPXORQ       Z29, Z29, Z29

	VBROADCASTSD (R10), Z25
	VBROADCASTSD (R11), Z26
	CLOSE(Z0, Z17, Z21)
	CLOSE(Z1, Z18, Z22)
	CLOSE(Z2, Z19, Z23)
	CLOSE(Z3, Z20, Z24)
	VBROADCASTSD 8(R10), Z25
	VBROADCASTSD 8(R11), Z26
	CLOSE(Z4, Z17, Z21)
	CLOSE(Z5, Z18, Z22)
	CLOSE(Z6, Z19, Z23)
	CLOSE(Z7, Z20, Z24)
	VBROADCASTSD 16(R10), Z25
	VBROADCASTSD 16(R11), Z26
	CLOSE(Z8, Z17, Z21)
	CLOSE(Z9, Z18, Z22)
	CLOSE(Z10, Z19, Z23)
	CLOSE(Z11, Z20, Z24)
	VBROADCASTSD 24(R10), Z25
	VBROADCASTSD 24(R11), Z26
	CLOSE(Z12, Z17, Z21)
	CLOSE(Z13, Z18, Z22)
	CLOSE(Z14, Z19, Z23)
	CLOSE(Z15, Z20, Z24)

	VMOVUPD Z0, (DI)
	VMOVUPD Z1, 64(DI)
	VMOVUPD Z2, 128(DI)
	VMOVUPD Z3, 192(DI)
	VMOVUPD Z4, 256(DI)
	VMOVUPD Z5, 320(DI)
	VMOVUPD Z6, 384(DI)
	VMOVUPD Z7, 448(DI)
	VMOVUPD Z8, 512(DI)
	VMOVUPD Z9, 576(DI)
	VMOVUPD Z10, 640(DI)
	VMOVUPD Z11, 704(DI)
	VMOVUPD Z12, 768(DI)
	VMOVUPD Z13, 832(DI)
	VMOVUPD Z14, 896(DI)
	VMOVUPD Z15, 960(DI)
	VZEROUPPER
	RET
