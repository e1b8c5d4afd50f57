//go:build amd64

#include "go_asm.h"
#include "textflag.h"

// Constants of math.Exp's amd64 path (math/exp_amd64.s, Go standard
// library, BSD-3-Clause), in the order EXPCONST loads them into
// Z16-Z31, followed by the wedge test's own.
DATA expconst<>+0(SB)/8, $1.4426950408889634073599246810018920             // LOG2E
DATA expconst<>+8(SB)/8, $0.69314718055966295651160180568695068359375      // LN2U
DATA expconst<>+16(SB)/8, $0.28235290563031577122588448175013436025525412068e-12 // LN2L
DATA expconst<>+24(SB)/8, $0.0625
DATA expconst<>+32(SB)/8, $2.4801587301587301587e-5
DATA expconst<>+40(SB)/8, $1.9841269841269841270e-4
DATA expconst<>+48(SB)/8, $1.3888888888888888889e-3
DATA expconst<>+56(SB)/8, $8.3333333333333333333e-3
DATA expconst<>+64(SB)/8, $4.1666666666666666667e-2
DATA expconst<>+72(SB)/8, $1.6666666666666666667e-1
DATA expconst<>+80(SB)/8, $0.5
DATA expconst<>+88(SB)/8, $1.0
DATA expconst<>+96(SB)/8, $2.0
DATA expconst<>+104(SB)/8, $0x3ff                                            // exponent bias
DATA expconst<>+112(SB)/8, $-0.5
DATA expconst<>+120(SB)/8, $1.0842021724855044e-19                           // 2^-63
GLOBL expconst<>(SB), RODATA, $128

// EXPCONST broadcasts the constants into Z16-Z31.
#define EXPCONST \
	VBROADCASTSD expconst<>+0(SB), Z16;   \
	VBROADCASTSD expconst<>+8(SB), Z17;   \
	VBROADCASTSD expconst<>+16(SB), Z18;  \
	VBROADCASTSD expconst<>+24(SB), Z19;  \
	VBROADCASTSD expconst<>+32(SB), Z20;  \
	VBROADCASTSD expconst<>+40(SB), Z21;  \
	VBROADCASTSD expconst<>+48(SB), Z22;  \
	VBROADCASTSD expconst<>+56(SB), Z23;  \
	VBROADCASTSD expconst<>+64(SB), Z24;  \
	VBROADCASTSD expconst<>+72(SB), Z25;  \
	VBROADCASTSD expconst<>+80(SB), Z26;  \
	VBROADCASTSD expconst<>+88(SB), Z27;  \
	VBROADCASTSD expconst<>+96(SB), Z28;  \
	VPBROADCASTQ expconst<>+104(SB), Z29; \
	VBROADCASTSD expconst<>+112(SB), Z30; \
	VBROADCASTSD expconst<>+120(SB), Z31

// EXPPD sets x to exp(x) lane by lane with exactly math.Exp's
// operations on its FMA path (math.archExp, taken when the CPU has AVX
// and FMA): the same constants, the same operations, in the same order,
// so each lane rounds as math.Exp does. With the constants in Z16-Z31
// (EXPCONST): t = LOG2E·x; k = t rounded to the nearest integer
// (VCVTPD2QQ under the default rounding mode, as archExp's CVTSD2SL);
// x −= k·LN2U and x −= k·LN2L, one VFNMADD231PD each; x /= 16; the
// Taylor polynomial t in Horner form, seven VFMADD213PD; x ·= t; then
// four times t = x + 2 with x ·= t between them, a final x = x·t + 1;
// and ldexp, x ·= 2^k built from the exponent bits k + 0x3ff. k and t
// are scratch. The arguments must lie clear of archExp's special
// cases (not finite, overflow, a denormal result); the wedge test's
// lie in [−7, 0].
#define EXPPD(x, k, t) \
	VMULPD       Z16, x, t; \
	VCVTPD2QQ    t, k;      \
	VCVTQQ2PD    k, t;      \
	VFNMADD231PD Z17, t, x; \
	VFNMADD231PD Z18, t, x; \
	VMULPD       Z19, x, x; \
	VMOVAPD      Z20, t;    \
	VFMADD213PD  Z21, x, t; \
	VFMADD213PD  Z22, x, t; \
	VFMADD213PD  Z23, x, t; \
	VFMADD213PD  Z24, x, t; \
	VFMADD213PD  Z25, x, t; \
	VFMADD213PD  Z26, x, t; \
	VFMADD213PD  Z27, x, t; \
	VMULPD       t, x, x;   \
	VADDPD       Z28, x, t; \
	VMULPD       t, x, x;   \
	VADDPD       Z28, x, t; \
	VMULPD       t, x, x;   \
	VADDPD       Z28, x, t; \
	VMULPD       t, x, x;   \
	VADDPD       Z28, x, t; \
	VFMADD213PD  Z27, t, x; \
	VPADDQ       Z29, k, k; \
	VPSLLQ       $52, k, k; \
	VMULPD       k, x, x

// MIX sets x to the SplitMix64 output function of the states in s,
// with the multipliers in Z2 and Z3; t is scratch.
#define MIX(s, x, t) \
	VPSRLQ  $30, s, t; \
	VPXORQ  s, t, x;   \
	VPMULLQ Z2, x, x;  \
	VPSRLQ  $27, x, t; \
	VPXORQ  x, t, x;   \
	VPMULLQ Z3, x, x;  \
	VPSRLQ  $31, x, t; \
	VPXORQ  x, t, x

// LISTMISS(off) writes the lowest miss left in AX, offset by the word
// base R12, to the entry at byte offset off from the count R13, and
// clears it from AX (BLSRQ sets ZF once AX is empty).
#define LISTMISS(off) \
	TZCNTQ AX, DX;                              \
	ADDQ   R12, DX;                             \
	MOVW   DX, window_misses+off(R9)(R13*2);   \
	BLSRQ  AX, AX

// func windowAVX512(w *window, s uint64, steps int)
//
// Pass 1 covers eight stream positions per step, one per qword lane.
// Lane k of step t holds the state s + (8t+k+1)·γ and runs the
// SplitMix64 output mix on it. j is the top 32 bits of the mix,
// sign-extended (VPSRAQ); i = j & 0x7f indexes one VPGATHERQQ of the
// packed table knwn (kn low, wn high). The value float64(j)·wn[i] is
// VCVTQQ2PD, VCVTPS2PD and one VMULPD — the rounding of Norm's
// float64(j) * float64(wn[i]) — stored to w.vals. The hit mask
// |j| < kn[i] is one unsigned VPCMPUQ of VPABSQ(j) against kn, stored
// as one byte of w.hits. The miss list then takes each hits word's
// clear bits, four entries per word with no branch (LISTMISS) and a
// loop only past four, into w.misses, R13 of them.
//
// Pass 2 runs over the miss list eight entries at a time, with no
// branch in a group's vector part. Per lane, at the position p, it
// computes what Norm computes at a miss: x is gathered from w.vals,
// the mix of s + (p+1)·γ gives j and i again,
// u = float64(int64(m>>1))·2^-63 from the mix m of the next position,
// s + (p+2)·γ; y = fn[i] + float32(u)·(fn[i−1]−fn[i]) in float32 with a
// separate VMULPS and VADDPS (Norm's unfused float32 multiply and add),
// from one VPGATHERQQ of fnwedge; the exp of (−.5·x)·x by EXPPD,
// rounded to float32. Accept is y < exp, fallback is i == 0 or u == 1;
// the group stores the two lane masks as one byte each of w.acc and
// w.fb (its lanes past the list's end hold verdicts on stale entries,
// which no word's placement reaches). A loop over the words then
// places them, PDEPQ at each word's misses, into w.accept and
// w.fallback.
TEXT ·windowAVX512(SB), NOSPLIT, $0-24
	MOVQ          w+0(FP), DI
	MOVQ          s+8(FP), AX
	MOVQ          steps+16(FP), CX
	MOVQ          DI, R9
	LEAQ          window_hits(DI), SI
	LEAQ          ·knwn(SB), R8
	XORQ          R13, R13               // misses so far

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

pass1:
	MIX(Z0, Z6, Z7)
	VPSRAQ        $32, Z6, Z7            // j
	VPANDQ        Z4, Z7, Z8             // i = j & 0x7f
	KXNORB        K7, K7, K1
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
	JNZ           pass1

	// List the misses: the clear bits of w.hits below steps·8, word by
	// word. Each word writes four entries whatever it holds (TZCNTQ of
	// an empty rest is 64, an entry past the count) and advances the
	// count by its POPCNTQ; only a word with more misses loops. The
	// word's miss mask waits in w.accept for the placement below.
	MOVQ          steps+16(FP), CX
	SHLQ          $3, CX                 // positions left
	XORQ          R12, R12               // word base position
	XORQ          R11, R11               // word index

words:
	MOVQ          $64, DX
	CMPQ          CX, DX
	CMOVQLT       CX, DX                 // positions in the word
	MOVQ          window_hits(R9)(R11*8), AX
	NOTQ          AX
	BZHIQ         DX, AX, AX             // the word's misses
	MOVQ          AX, window_accept(R9)(R11*8)
	POPCNTQ       AX, R10
	LISTMISS(0)
	LISTMISS(2)
	LISTMISS(4)
	LISTMISS(6)
	JZ            listed
	LEAQ          4(R13), R8             // next entry

more:
	TZCNTQ        AX, DX
	ADDQ          R12, DX
	MOVW          DX, window_misses(R9)(R8*2)
	INCQ          R8
	BLSRQ         AX, AX
	JNZ           more

listed:
	ADDQ          R10, R13
	ADDQ          $64, R12
	INCQ          R11
	SUBQ          $64, CX
	JG            words

	TESTQ         R13, R13
	JZ            place
	EXPCONST
	VPBROADCASTQ  ·laneGamma(SB), Z1     // γ
	MOVQ          s+8(FP), AX
	VPBROADCASTQ  AX, Z0
	VPADDQ        Z1, Z0, Z0             // s + γ
	LEAQ          ·fnwedge(SB), DI
	XORQ          R14, R14               // next list entry

pass2:
	VPMOVZXWQ     window_misses(R9)(R14*2), Z6 // p
	KXNORB        K7, K7, K1
	VPGATHERQQ    window_vals(R9)(Z6*8), K1, Z11 // x
	VPMULLQ       Z1, Z6, Z6
	VPADDQ        Z0, Z6, Z6             // s + (p+1)·γ
	VPADDQ        Z1, Z6, Z7             // s + (p+2)·γ
	MIX(Z6, Z6, Z8)
	MIX(Z7, Z7, Z8)
	VPSRAQ        $32, Z6, Z6            // j
	VPANDQ        Z4, Z6, Z8             // i
	KXNORB        K7, K7, K1
	VPGATHERQQ    (DI)(Z8*8), K1, Z10    // fnwedge[i]
	VPSRLQ        $1, Z7, Z7
	VCVTQQ2PD     Z7, Z7
	VMULPD        Z31, Z7, Z7            // u
	VCMPPD        $0, Z27, Z7, K3        // u == 1
	VCVTPD2PS     Z7, Y7                 // float32(u)
	VPMOVQD       Z10, Y12               // fn[i]
	VPSRLQ        $32, Z10, Z10
	VPMOVQD       Z10, Y13               // fn[i-1] - fn[i]
	VMULPS        Z13, Z7, Z7
	VADDPS        Z12, Z7, Z7            // y
	VMULPD        Z30, Z11, Z12
	VMULPD        Z11, Z12, Z12          // (-.5·x)·x
	EXPPD(Z12, Z13, Z14)
	VCVTPD2PS     Z12, Y12
	VCMPPS        $0x11, Z12, Z7, K4     // y < float32(exp), ordered
	VPTESTNMQ     Z8, Z8, K5             // i == 0
	KORB          K3, K5, K5
	MOVQ          R14, BX
	SHRQ          $3, BX                 // group
	KMOVB         K4, window_acc(R9)(BX*1)
	KMOVB         K5, window_fb(R9)(BX*1)
	ADDQ          $8, R14
	CMPQ          R14, R13
	JLT           pass2

	// Place the verdicts: per word, PDEPQ deposits the next
	// popcount(misses) accept and fallback bits of the group bytes at
	// the word's miss positions, and clears both masks at its hits.
	// SHRQ takes the 64 bits from bit offset R14 of each byte stream
	// out of two qword loads.
place:
	MOVQ          steps+16(FP), R8
	ADDQ          $7, R8
	SHRQ          $3, R8                 // words
	XORQ          R11, R11               // word index
	XORQ          R14, R14               // verdicts placed

placeword:
	MOVQ          window_accept(R9)(R11*8), AX // the word's misses
	MOVQ          R14, BX
	SHRQ          $3, BX
	MOVQ          R14, CX
	ANDQ          $7, CX
	MOVQ          window_acc(R9)(BX*1), DX
	MOVQ          window_acc+8(R9)(BX*1), R10
	SHRQ          CX, R10, DX
	PDEPQ         AX, DX, DX
	MOVQ          DX, window_accept(R9)(R11*8)
	MOVQ          window_fb(R9)(BX*1), DX
	MOVQ          window_fb+8(R9)(BX*1), R10
	SHRQ          CX, R10, DX
	PDEPQ         AX, DX, DX
	MOVQ          DX, window_fallback(R9)(R11*8)
	POPCNTQ       AX, DX
	ADDQ          DX, R14
	INCQ          R11
	DECQ          R8
	JNZ           placeword

	VZEROUPPER
	RET

// COMPRESSBYTE(b) compacts the eight values of byte b of a word: the
// emit byte at b(BX) selects lanes of the values at 64·b(SI);
// VCOMPRESSPD packs them to the low lanes and a store masked to their
// count writes exactly those at DI, which then advances by the count.
// Both masks are loaded from memory, which keeps the mask moves off the
// vector ports.
#define COMPRESSBYTE(b) \
	KMOVB       b(BX), K1;         \
	MOVBLZX     b(BX), AX;         \
	POPCNTL     AX, DX;            \
	KMOVB       (R14)(DX*1), K2;   \
	VMOVUPD     (64*b)(SI), Z0;    \
	VCOMPRESSPD Z0, K1, Z1;        \
	VMOVUPD     Z1, K2, (DI);      \
	LEAQ        (DI)(DX*8), DI

// storeMask[c] is the mask of the low c lanes.
DATA storeMask<>+0(SB)/8, $0x7f3f1f0f07030100
DATA storeMask<>+8(SB)/1, $0xff
GLOBL storeMask<>(SB), RODATA, $9

// func walkAVX512(w *window, dst *float64, room, p, n int) (o, q int)
//
// The walker's fast path: window.walk's Go word body in registers,
// word after word, from the draw start p. Per word k, with b = p − 64k:
// live is the positions from b up to n (BZHIQ) or the word's end;
// starts = missStarts(live &^ hits), with ANDNQ for each &^. A
// fallback that starts a draw at q ends the walk if q is the walk's
// position p, and otherwise cuts live to the positions below q, so the
// walk stops at q after the word. The emitted positions are
// live &^ starts<<1 & (hits | starts&accept), and eight COMPRESSBYTE
// steps write their values at DI. The next draw start is
// 64k + last + 1, plus one when last starts a draw (BTQ into the
// carry), which then consumes the position after it; last is the
// word's last live position. In the word where dst fills, the emitted
// positions are only the first room of them (PDEPQ of room low bits
// over emit), last is the last of those, and the walk ends after the
// word. It returns the values written and the next draw start.
TEXT ·walkAVX512(SB), NOSPLIT, $8-56
	MOVQ          w+0(FP), R9
	MOVQ          dst+8(FP), DI
	MOVQ          room+16(FP), R10
	MOVQ          p+24(FP), R11
	MOVQ          n+32(FP), R12
	MOVQ          $0x5555555555555555, R13 // the even positions
	LEAQ          storeMask<>(SB), R14
	CMPQ          R11, R12
	JGE           walked

walkword:
	MOVQ          R11, BX
	SHRQ          $6, BX                 // k
	MOVQ          BX, DX
	SHLQ          $6, DX
	NEGQ          DX
	ADDQ          R12, DX                // n − 64k
	MOVQ          $64, AX
	CMPQ          DX, AX
	CMOVQGT       AX, DX                 // end
	MOVQ          $-1, AX
	BZHIQ         DX, AX, AX             // the positions below end
	MOVQ          R11, CX
	MOVQ          $-1, DX
	SHLQ          CX, DX                 // the positions from b on
	ANDQ          DX, AX                 // live
	MOVQ          window_hits(R9)(BX*8), SI
	ANDNQ         AX, SI, DX             // misses
	LEAQ          (DX)(DX*1), CX
	ANDNQ         DX, CX, CX             // the first miss of each run
	ANDNQ         CX, R13, R8            // ... on an odd position
	ANDQ          R13, CX                // ... on an even position
	ADDQ          DX, CX
	ADDQ          DX, R8
	ANDNQ         DX, CX, CX             // the runs that begin on even
	ANDNQ         DX, R8, R8             // the runs that begin on odd
	ANDQ          R13, CX
	ANDNQ         R8, R13, R8
	ORQ           R8, CX                 // starts
	MOVQ          window_fallback(R9)(BX*8), R8
	ANDQ          CX, R8                 // the fallbacks that start a draw
	JNZ           fallback

settled:
	MOVQ          window_accept(R9)(BX*8), R8
	ANDQ          CX, R8
	ORQ           SI, R8
	ANDQ          AX, R8
	LEAQ          (CX)(CX*1), SI
	ANDNQ         R8, SI, R8             // emit
	POPCNTQ       R8, DX
	CMPQ          DX, R10
	JGE           fills                  // dst fills in this word
	SUBQ          DX, R10
	BSRQ          AX, AX                 // last

emitword:
	MOVQ          BX, SI
	SHLQ          $9, SI
	LEAQ          window_vals(R9)(SI*1), SI // the word's values
	SHLQ          $6, BX
	BTQ           AX, CX                 // last starts a draw
	LEAQ          1(BX)(AX*1), R11
	ADCQ          $0, R11                // the next draw start
	MOVQ          R8, emit-8(SP)
	LEAQ          emit-8(SP), BX
	COMPRESSBYTE(0)
	COMPRESSBYTE(1)
	COMPRESSBYTE(2)
	COMPRESSBYTE(3)
	COMPRESSBYTE(4)
	COMPRESSBYTE(5)
	COMPRESSBYTE(6)
	COMPRESSBYTE(7)
	TESTQ         R10, R10
	JZ            walked                 // dst is full
	CMPQ          R11, R12
	JLT           walkword
	JMP           walked

	// A fallback starts a draw at q: at the walk's start, end the walk;
	// past it, walk the word below q alone. Every use of starts is cut
	// by live, and the miss before q, if any, is consumed, so it starts
	// no draw and the next start is q.
fallback:
	TZCNTQ        R8, R8                 // q
	MOVQ          R11, DX
	ANDQ          $63, DX                // b
	CMPQ          R8, DX
	JEQ           walked
	BZHIQ         R8, AX, AX             // live below q
	JMP           settled

	// dst fills in this word: emit its first room values, and end at
	// the last of them.
fills:
	MOVQ          $-1, AX
	BZHIQ         R10, AX, AX
	PDEPQ         R8, AX, R8             // the lowest room bits of emit
	BSRQ          R8, AX                 // last
	XORQ          R10, R10
	JMP           emitword

walked:
	MOVQ          DI, AX
	SUBQ          dst+8(FP), AX
	SHRQ          $3, AX
	MOVQ          AX, o+40(FP)
	MOVQ          R11, q+48(FP)
	VZEROUPPER
	RET

// func expAVX512(dst, src *float64, n int)
TEXT ·expAVX512(SB), NOSPLIT, $0-24
	MOVQ          dst+0(FP), DI
	MOVQ          src+8(FP), SI
	MOVQ          n+16(FP), CX
	SHRQ          $3, CX
	JZ            expdone
	EXPCONST

exploop:
	VMOVUPD       (SI), Z0
	EXPPD(Z0, Z1, Z2)
	VMOVUPD       Z0, (DI)
	ADDQ          $64, SI
	ADDQ          $64, DI
	DECQ          CX
	JNZ           exploop

expdone:
	VZEROUPPER
	RET
