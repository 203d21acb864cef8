#include "textflag.h"

// func addTaps(dst, src []float64, offs []int)
//
// addTapsGo in SSE2. Sixteen bins at a time sit in eight two-lane
// accumulators, X0-X7, which take tap after tap in the order of offs, so each
// bin adds its addends left to right, as in the Go loop: eight independent
// chains of ADDPD keep the adder busy where one would wait out its latency.
// The bins past the last whole block go two at a time through one
// accumulator, and a last odd bin alone. The caller guarantees that src holds
// offs[t] + len(dst) values for every tap t. Baseline amd64 always has SSE2.
TEXT ·addTaps(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	MOVQ offs_base+48(FP), R8
	MOVQ offs_len+56(FP), R9
	TESTQ R9, R9
	JZ   done              // no tap adds nothing
	MOVQ CX, BX
	ANDQ $-16, BX          // the bins the whole blocks cover
	XORQ AX, AX            // the block's first bin

block:
	CMPQ AX, BX
	JGE  pairs
	LEAQ (DI)(AX*8), R10   // &dst[i]
	LEAQ (SI)(AX*8), R11   // &src[i]
	MOVUPD 0(R10), X0
	MOVUPD 16(R10), X1
	MOVUPD 32(R10), X2
	MOVUPD 48(R10), X3
	MOVUPD 64(R10), X4
	MOVUPD 80(R10), X5
	MOVUPD 96(R10), X6
	MOVUPD 112(R10), X7
	XORQ R12, R12          // the tap

tap:
	MOVQ (R8)(R12*8), DX
	LEAQ (R11)(DX*8), DX   // &src[offs[t]+i]
	MOVUPD 0(DX), X8
	MOVUPD 16(DX), X9
	MOVUPD 32(DX), X10
	MOVUPD 48(DX), X11
	MOVUPD 64(DX), X12
	MOVUPD 80(DX), X13
	MOVUPD 96(DX), X14
	ADDPD X8, X0
	ADDPD X9, X1
	ADDPD X10, X2
	ADDPD X11, X3
	ADDPD X12, X4
	ADDPD X13, X5
	ADDPD X14, X6
	MOVUPD 112(DX), X8     // X15 stays clear: Go code reads it as zero
	ADDPD X8, X7
	INCQ R12
	CMPQ R12, R9
	JLT  tap
	MOVUPD X0, 0(R10)
	MOVUPD X1, 16(R10)
	MOVUPD X2, 32(R10)
	MOVUPD X3, 48(R10)
	MOVUPD X4, 64(R10)
	MOVUPD X5, 80(R10)
	MOVUPD X6, 96(R10)
	MOVUPD X7, 112(R10)
	ADDQ $16, AX
	JMP  block

pairs:
	LEAQ 2(AX), DX
	CMPQ DX, CX
	JGT  single
	LEAQ (SI)(AX*8), R11
	MOVUPD (DI)(AX*8), X0
	XORQ R12, R12

pairtap:
	MOVQ (R8)(R12*8), DX
	MOVUPD (R11)(DX*8), X8
	ADDPD X8, X0
	INCQ R12
	CMPQ R12, R9
	JLT  pairtap
	MOVUPD X0, (DI)(AX*8)
	ADDQ $2, AX
	JMP  pairs

single:
	CMPQ AX, CX
	JGE  done
	LEAQ (SI)(AX*8), R11
	MOVSD (DI)(AX*8), X0
	XORQ R12, R12

singletap:
	MOVQ (R8)(R12*8), DX
	ADDSD (R11)(DX*8), X0
	INCQ R12
	CMPQ R12, R9
	JLT  singletap
	MOVSD X0, (DI)(AX*8)

done:
	RET

// func scale(dst, src []float64, w float64)
//
// scaleGo in SSE2: MULPD rounds each lane's product as MULSD does, sixteen
// bins a round, then two at a time and a last odd one alone. The caller
// guarantees that dst holds len(src) values.
TEXT ·scale(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), CX
	MOVSD w+48(FP), X8
	UNPCKLPD X8, X8        // w in both lanes
	MOVQ CX, BX
	ANDQ $-16, BX
	XORQ AX, AX

sblock:
	CMPQ AX, BX
	JGE  spairs
	MOVUPD 0(SI)(AX*8), X0
	MOVUPD 16(SI)(AX*8), X1
	MOVUPD 32(SI)(AX*8), X2
	MOVUPD 48(SI)(AX*8), X3
	MOVUPD 64(SI)(AX*8), X4
	MOVUPD 80(SI)(AX*8), X5
	MOVUPD 96(SI)(AX*8), X6
	MOVUPD 112(SI)(AX*8), X7
	MULPD X8, X0
	MULPD X8, X1
	MULPD X8, X2
	MULPD X8, X3
	MULPD X8, X4
	MULPD X8, X5
	MULPD X8, X6
	MULPD X8, X7
	MOVUPD X0, 0(DI)(AX*8)
	MOVUPD X1, 16(DI)(AX*8)
	MOVUPD X2, 32(DI)(AX*8)
	MOVUPD X3, 48(DI)(AX*8)
	MOVUPD X4, 64(DI)(AX*8)
	MOVUPD X5, 80(DI)(AX*8)
	MOVUPD X6, 96(DI)(AX*8)
	MOVUPD X7, 112(DI)(AX*8)
	ADDQ $16, AX
	JMP  sblock

spairs:
	LEAQ 2(AX), DX
	CMPQ DX, CX
	JGT  ssingle
	MOVUPD (SI)(AX*8), X0
	MULPD X8, X0
	MOVUPD X0, (DI)(AX*8)
	ADDQ $2, AX
	JMP  spairs

ssingle:
	CMPQ AX, CX
	JGE  sdone
	MOVSD (SI)(AX*8), X0
	MULSD X8, X0
	MOVSD X0, (DI)(AX*8)

sdone:
	RET
