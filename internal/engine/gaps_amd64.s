#include "textflag.h"

// func envelopeGaps(widths, qpaa, qlo, qhi, paa, klo, khi []float64) (fwd, rev float64)
//
// envelopeGapsGo in SSE2: the forward sum in the low lane of X7 and the
// reverse sum in the high lane, each added to in segment order. A lane's
// gap is max(lo - v, 0) + max(v - hi, 0) with the difference as MAXPD's
// source operand, so a NaN difference comes through as NaN, as with the
// builtin max; a -0 difference comes through as -0 where the builtin gives
// +0, but only when lo or v is -0 and then the other side's term is +0 or
// more, so the gap's sum is the same. Baseline amd64 always has SSE2.
TEXT ·envelopeGaps(SB), NOSPLIT, $0-184
	MOVQ  widths_base+0(FP), SI
	MOVQ  widths_len+8(FP), CX
	MOVQ  qpaa_base+24(FP), R8
	MOVQ  qlo_base+48(FP), R9
	MOVQ  qhi_base+72(FP), R10
	MOVQ  paa_base+96(FP), R11
	MOVQ  klo_base+120(FP), R12
	MOVQ  khi_base+144(FP), R13
	XORPD X6, X6 // +0, +0
	XORPD X7, X7 // fwd, rev
	XORQ  AX, AX
	TESTQ CX, CX
	JZ    done

loop:
	MOVSD    (R12)(AX*8), X0
	MOVHPD   (R9)(AX*8), X0  // lo: the row's lower envelope mean, the query's
	MOVSD    (R8)(AX*8), X1
	MOVHPD   (R11)(AX*8), X1 // v: the query's mean, the row's
	MOVSD    (R13)(AX*8), X2
	MOVHPD   (R10)(AX*8), X2 // hi: the row's upper envelope mean, the query's
	SUBPD    X1, X0          // lo - v
	SUBPD    X2, X1          // v - hi
	MOVAPD   X6, X3
	MAXPD    X0, X3
	MOVAPD   X6, X4
	MAXPD    X1, X4
	ADDPD    X4, X3          // the gap
	MOVSD    (SI)(AX*8), X5
	UNPCKLPD X5, X5
	MULPD    X3, X5
	MULPD    X3, X5          // width * gap * gap
	ADDPD    X5, X7
	INCQ     AX
	CMPQ     AX, CX
	JLT      loop

done:
	MOVSD    X7, fwd+168(FP)
	UNPCKHPD X7, X7
	MOVSD    X7, rev+176(FP)
	RET

// func prefetch(x []float64)
//
// PREFETCHT0 of the eight cache lines from x's first element on: half of a
// 128-point row, after which the hardware's own stream prefetch has caught
// up (the whole row measured no better, one or four lines worse). A prefetch
// never faults, so lines past the end of x, or an empty x, are harmless.
TEXT ·prefetch(SB), NOSPLIT, $0-24
	MOVQ       x_base+0(FP), AX
	PREFETCHT0 (AX)
	PREFETCHT0 64(AX)
	PREFETCHT0 128(AX)
	PREFETCHT0 192(AX)
	PREFETCHT0 256(AX)
	PREFETCHT0 320(AX)
	PREFETCHT0 384(AX)
	PREFETCHT0 448(AX)
	RET
