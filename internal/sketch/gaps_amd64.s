#include "textflag.h"

// func gaps(w, q, col []float64, stride, rows int, idx []int32, out []float64) int
//
// gapsGo in SSE2. A row's accumulators a0, a1 are the two lanes of X4 and
// a2, a3 those of X5: a chunk of four segments j..j+3 adds its first pair's
// terms to X4 and its second pair's to X5, so each accumulator sees its own
// segments in order, as in the Go loop. A term is (w * d) * d with d = q - x,
// the Go expression's order. The segments past the last whole chunk go into
// a0 alone (ADDSD leaves a1 as it is), and the fold is (a0+a1) + (a2+a3).
// A row that is not one of col's first rows ends the pass: its index is the
// result. Baseline amd64 always has SSE2.
TEXT ·gaps(SB), NOSPLIT, $0-144
	MOVQ w_base+0(FP), SI
	MOVQ w_len+8(FP), CX
	MOVQ q_base+24(FP), DI
	MOVQ col_base+48(FP), R8
	MOVQ stride+72(FP), R9
	SHLQ $3, R9            // the stride in bytes
	MOVQ idx_base+88(FP), R11
	MOVQ idx_len+96(FP), DX
	TESTQ DX, DX
	JNZ  indexed
	XORQ R11, R11          // no index: row i is position i

indexed:
	MOVQ out_base+112(FP), R12
	MOVQ out_len+120(FP), R13
	MOVQ CX, BX
	ANDQ $-4, BX           // the segments the whole chunks cover
	XORQ AX, AX

row:
	CMPQ AX, R13
	JGE  stop
	MOVQ AX, DX
	TESTQ R11, R11
	JZ   dense
	MOVLQSX (R11)(AX*4), DX

dense:
	CMPQ DX, rows+80(FP)
	JAE  stop              // unsigned: a negative row is past the column too
	IMULQ R9, DX
	ADDQ R8, DX            // the row
	XORPD X4, X4           // a0, a1
	XORPD X5, X5           // a2, a3
	XORQ R10, R10
	CMPQ R10, BX
	JGE  tail

chunk:
	MOVUPD (DI)(R10*8), X0
	MOVUPD (DX)(R10*8), X1
	SUBPD  X1, X0          // d
	MOVUPD (SI)(R10*8), X2
	MULPD  X0, X2
	MULPD  X0, X2          // w * d * d
	ADDPD  X2, X4
	MOVUPD 16(DI)(R10*8), X0
	MOVUPD 16(DX)(R10*8), X1
	SUBPD  X1, X0
	MOVUPD 16(SI)(R10*8), X3
	MULPD  X0, X3
	MULPD  X0, X3
	ADDPD  X3, X5
	ADDQ   $4, R10
	CMPQ   R10, BX
	JLT    chunk

tail:
	CMPQ  R10, CX
	JGE   fold
	MOVSD (DI)(R10*8), X0
	SUBSD (DX)(R10*8), X0
	MOVSD (SI)(R10*8), X2
	MULSD X0, X2
	MULSD X0, X2
	ADDSD X2, X4
	INCQ  R10
	JMP   tail

fold:
	MOVAPD   X4, X0
	UNPCKHPD X0, X0
	ADDSD    X0, X4        // a0 + a1
	MOVAPD   X5, X1
	UNPCKHPD X1, X1
	ADDSD    X1, X5        // a2 + a3
	ADDSD    X5, X4
	MOVSD    X4, (R12)(AX*8)
	INCQ     AX
	JMP      row

stop:
	MOVQ AX, ret+136(FP)
	RET
