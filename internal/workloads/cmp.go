package workloads

import (
	"strconv"
	"strings"
)

// cmp mirrors GNU cmp's structure (paper §5.3: "straightforward, with
// almost all its time in a loop [that] contains an inner loop"): the
// outer loop walks two buffers in 64-byte chunks, the inner loop compares
// bytes. A task is one chunk. The buffers are identical until a single
// difference near the end, so task prediction is near-perfect and the
// work is embarrassingly parallel — the paper reports the largest speedup
// here (6.24 at 8 units).
func init() {
	register(&Workload{
		Name:         "cmp",
		Description:  "byte-compare two buffers in 64-byte chunk tasks (GNU cmp kernel)",
		DefaultScale: 256, // chunks
		TestScale:    24,
		Source:       cmpSource,
		Paper: PaperRow{
			ScalarM: 0.98, MultiM: 1.09, PctIncrease: 10.9,
			InOrder1: PaperPerf{ScalarIPC: 0.95, Speedup4: 3.23, Speedup8: 6.24, Pred4: 99.4, Pred8: 99.4},
			InOrder2: PaperPerf{ScalarIPC: 1.32, Speedup4: 3.02, Speedup8: 5.82, Pred4: 99.4, Pred8: 99.4},
			OOO1:     PaperPerf{ScalarIPC: 0.95, Speedup4: 3.24, Speedup8: 6.28, Pred4: 99.2, Pred8: 99.1},
			OOO2:     PaperPerf{ScalarIPC: 1.68, Speedup4: 2.76, Speedup8: 5.30, Pred4: 99.2, Pred8: 99.2},
		},
	})
}

func cmpSource(scale int) string {
	nchunks := scale
	n := nchunks * 64
	r := newRNG(0xc41)
	data := make([]int, n)
	for i := range data {
		data[i] = int(r.next() % 256)
	}
	// One difference at ~93% of the way through (cmp exits early there).
	diffAt := n * 15 / 16
	var b strings.Builder
	b.WriteString("\t.data\nbufa:\n")
	dataLines(&b, ".byte", data)
	b.WriteString("bufpad:\t.space 192\n") // odd block offset: keep the buffers off the same cache sets
	data[diffAt] = (data[diffAt] + 1) % 256
	b.WriteString("bufb:\n")
	dataLines(&b, ".byte", data)
	b.WriteString(`
	.text
main:
	li   $s0, 0 !f
`)
	b.WriteString("\tli   $s5, " + strconv.Itoa(n) + " !f\n")
	b.WriteString(`	li   $s6, -1 !f          ; mismatch position (-1 = none)
	j    CHUNK !s

CHUNK:
	move $t9, $s0
	.msonly addi $s0, $s0, 64 !f
	li   $t0, 64
BYTE:
	lbu  $t1, bufa($t9)
	lbu  $t2, bufb($t9)
	bne  $t1, $t2, MISMATCH
	addi $t9, $t9, 1
	addi $t0, $t0, -1
	bnez $t0, BYTE
	; $s6 is only written on the mismatch path: release it here, exactly
	; like Figure 4 releases $4 on the path that skips its writer
	.msonly release $s6
	.sconly addi $s0, $s0, 64
	bne  $s0, $s5, CHUNK !s
EQUAL:
	li   $a0, -1
` + printInt + exitSeq + `
MISMATCH:
	move $s6, $t9
	move $a0, $s6
` + printInt + exitSeq + `
	.task main targets=CHUNK create=$s0,$s5,$s6
	.task CHUNK targets=CHUNK,EQUAL create=$s0,$s6
	.task EQUAL
`)
	return b.String()
}
