#include "textflag.h"

// SSE2 forms of the loops in kernels.go, bit for bit. Baseline amd64
// (GOAMD64=v1) always has SSE2, so nothing here tests the CPU.
//
// MINSD and MAXPD are not the builtin min and max: on equal operands, or on
// a NaN, they return their second (source) operand. Where they stand in for
// the builtins below, the operands are never NaN and never -0 (sweep4), or
// the source operand is the value the Go code picks in those cases
// (lbKeoghTerms), so they return the same bits.

// func sweep4(xs *[4]float64, ys, rs, pre, post []float64, c *sweep4Cells)
//
// The loop of sweep4Go (xs and c.diag are read 8 bytes at a time, as the Go
// code stores them, so the loads take the stores' values without waiting): X0 (xa, xb), X1 (xc, xd), X2 diag, X3-X6 the four
// rows' left neighbours, X7 (minA, minB), X8 (minC, minD). Each row's chain
// waits for one MINSD and one ADDSD a column, and the four chains overlap;
// the costs are packed two rows a register. The first len(pre)/4 columns
// add pre's masks to their costs, the last len(post)/4 post's, and the
// columns between add none: COSTS, MASK and CELLS are one column's parts.
#define COSTS \
	MOVSD    (SI), X9 \
	UNPCKLPD X9, X9 \
	MOVAPD   X0, X10 \
	SUBPD    X9, X10 \
	MULPD    X10, X10 \
	MOVAPD   X1, X11 \
	SUBPD    X9, X11 \
	MULPD    X11, X11

#define MASK \
	MOVUPD (BX), X9 \
	ADDPD  X9, X10 \
	MOVUPD 16(BX), X9 \
	ADDPD  X9, X11 \
	ADDQ   $32, BX

#define CELLS \
	MOVSD    (DI), X12 \
	MOVAPD   X12, X13 \
	MINSD    X2, X13 \
	MINSD    X3, X13 \
	MOVAPD   X12, X2 \
	ADDSD    X13, X10 \
	MOVAPD   X10, X13 \
	MINSD    X3, X13 \
	MINSD    X4, X13 \
	MOVHLPS  X10, X14 \
	ADDSD    X13, X14 \
	MOVAPD   X10, X3 \
	MOVAPD   X14, X13 \
	MINSD    X4, X13 \
	MINSD    X5, X13 \
	ADDSD    X13, X11 \
	MOVAPD   X14, X4 \
	MOVAPD   X11, X13 \
	MINSD    X5, X13 \
	MINSD    X6, X13 \
	MOVHLPS  X11, X12 \
	ADDSD    X13, X12 \
	MOVSD    X12, (DI) \
	MOVAPD   X11, X5 \
	MOVAPD   X12, X6 \
	UNPCKLPD X14, X10 \
	MINPD    X10, X7 \
	UNPCKLPD X12, X11 \
	MINPD    X11, X8 \
	ADDQ     $8, SI \
	ADDQ     $8, DI

TEXT ·sweep4(SB), NOSPLIT, $0-112
	MOVQ   xs+0(FP), AX
	MOVSD  0(AX), X0
	MOVHPD 8(AX), X0
	MOVSD  16(AX), X1
	MOVHPD 24(AX), X1
	MOVQ   ys_base+8(FP), SI
	MOVQ   ys_len+16(FP), DX
	MOVQ   rs_base+32(FP), DI
	MOVQ   pre_base+56(FP), BX
	MOVQ   pre_len+64(FP), CX
	MOVQ   post_len+88(FP), R8
	SHRQ   $2, CX
	SHRQ   $2, R8
	SUBQ   CX, DX
	SUBQ   R8, DX // the columns between
	MOVQ   c+104(FP), AX
	MOVSD  0(AX), X2
	MOVQ   $0x7ff0000000000000, R9
	MOVQ   R9, X3 // +Inf
	UNPCKLPD X3, X3
	MOVAPD X3, X4
	MOVAPD X3, X5
	MOVAPD X3, X6
	MOVAPD X3, X7
	MOVAPD X3, X8
	TESTQ  CX, CX
	JZ     s4middle

s4masked:
	COSTS
	MASK
	CELLS
	DECQ CX
	JNZ  s4masked

s4middle:
	TESTQ DX, DX
	JZ    s4post

s4plain:
	COSTS
	CELLS
	DECQ DX
	JNZ  s4plain

s4post:
	// The post columns run through the masked loop, which then falls
	// through to here again with nothing left.
	MOVQ  R8, CX
	XORQ  R8, R8
	MOVQ  post_base+80(FP), BX
	TESTQ CX, CX
	JNZ   s4masked
	MOVSD  X2, 0(AX)
	MOVSD  X3, 8(AX)
	MOVSD  X4, 16(AX)
	MOVSD  X5, 24(AX)
	MOVSD  X6, 32(AX)
	MOVUPD X7, 40(AX)
	MOVUPD X8, 56(AX)
	RET

// func lbKeoghTerms(q, upper, lower, terms []float64, cutoff float64) float64
//
// The loop of lbKeoghGo, two timestamps a pass: the terms come from packed
// SUBPD, MAXPD and MULPD, then join the sum one at a time, each followed by
// its store and its test against the cutoff, as in the Go loop.
// max(d, 0) with 0 as MAXPD's source is d > 0 ? d : 0 for every d, NaN and
// -0 included; the upper term is taken where it is positive, the lower
// one otherwise (CMPPD, ANDNPD and ORPD on +0 bits, which are exact).
// terms may be nil: then nothing is stored.
TEXT ·lbKeoghTerms(SB), NOSPLIT, $0-112
	MOVQ  q_base+0(FP), SI
	MOVQ  q_len+8(FP), CX
	MOVQ  upper_base+24(FP), R8
	MOVQ  lower_base+48(FP), R9
	MOVQ  terms_base+72(FP), DI
	MOVSD cutoff+96(FP), X5
	XORPD X7, X7 // +0, +0
	XORPD X6, X6 // the sum

	// R10 steps terms by a pair, or stays at 0 when terms is nil.
	XORQ  R10, R10
	TESTQ DI, DI
	JZ    lbpairs
	MOVQ  $16, R10

lbpairs:
	CMPQ   CX, $2
	JLT    lbtail
	MOVUPD (SI), X0
	MOVUPD (R8), X1
	MOVUPD (R9), X2
	MOVAPD X0, X3
	SUBPD  X1, X0     // q - upper
	SUBPD  X3, X2     // lower - q
	MAXPD  X7, X0
	MAXPD  X7, X2
	MOVAPD X7, X4
	CMPPD  X0, X4, $1 // 0 < q - upper
	ANDNPD X2, X4
	ORPD   X4, X0
	MULPD  X0, X0     // the two terms
	ADDSD  X0, X6
	TESTQ  DI, DI
	JZ     lbnostore0
	MOVSD  X0, (DI)

lbnostore0:
	UCOMISD  X5, X6
	JA       lbdone
	UNPCKHPD X0, X0
	ADDSD    X0, X6
	TESTQ    DI, DI
	JZ       lbnostore1
	MOVSD    X0, 8(DI)

lbnostore1:
	UCOMISD X5, X6
	JA      lbdone
	ADDQ    $16, SI
	ADDQ    $16, R8
	ADDQ    $16, R9
	ADDQ    R10, DI
	SUBQ    $2, CX
	JMP     lbpairs

lbtail:
	TESTQ  CX, CX
	JZ     lbdone
	MOVSD  (SI), X0
	MOVSD  (R8), X1
	MOVSD  (R9), X2
	MOVAPD X0, X3
	SUBPD  X1, X0
	SUBPD  X3, X2
	MAXPD  X7, X0
	MAXPD  X7, X2
	MOVAPD X7, X4
	CMPPD  X0, X4, $1
	ANDNPD X2, X4
	ORPD   X4, X0
	MULPD  X0, X0
	ADDSD  X0, X6
	TESTQ  DI, DI
	JZ     lbdone
	MOVSD  X0, (DI)

lbdone:
	MOVSD X6, ret+104(FP)
	RET
