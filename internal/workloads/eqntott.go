package workloads

import (
	"strconv"
	"strings"
)

// eqntott reduces to cmppt, the comparison routine that dominates the
// SPEC92 program (paper §5.3: "most (85%) of the instructions are in the
// cmppt function, dominated by a loop; the compiler encompasses the
// entire loop body into a task, allowing multiple iterations to execute
// in parallel"). A task compares one pair of PTERM vectors word by word
// until they differ, and folds the three-way outcome into an order
// accumulator. Pairs share prefixes of random length, so the inner loop
// has data-dependent trip counts and exits.
func init() {
	register(&Workload{
		Name:         "eqntott",
		Description:  "cmppt PTERM-vector comparison, one pair per task",
		DefaultScale: 400, // comparisons
		TestScale:    40,
		Source:       eqntottSource,
		Paper: PaperRow{
			ScalarM: 1077.50, MultiM: 1237.73, PctIncrease: 14.9,
			InOrder1: PaperPerf{ScalarIPC: 0.83, Speedup4: 2.05, Speedup8: 2.91, Pred4: 94.8, Pred8: 94.6},
			InOrder2: PaperPerf{ScalarIPC: 1.10, Speedup4: 1.82, Speedup8: 2.58, Pred4: 94.8, Pred8: 94.6},
			OOO1:     PaperPerf{ScalarIPC: 0.84, Speedup4: 2.23, Speedup8: 3.35, Pred4: 94.8, Pred8: 94.6},
			OOO2:     PaperPerf{ScalarIPC: 1.21, Speedup4: 1.79, Speedup8: 2.64, Pred4: 94.8, Pred8: 94.5},
		},
	})
}

const ptermWords = 8

func eqntottSource(scale int) string {
	npairs := scale
	r := newRNG(0xe41077)
	// PTERM pool: npairs*2 vectors of ptermWords words; pair i compares
	// vectors 2i and 2i+1. They agree on a random-length prefix.
	var words []int
	for p := 0; p < npairs; p++ {
		a := make([]int, ptermWords)
		for i := range a {
			a[i] = int(r.next() & 0x3fffffff)
		}
		b := make([]int, ptermWords)
		copy(b, a)
		pre := r.intn(ptermWords + 1)
		for i := pre; i < ptermWords; i++ {
			b[i] = int(r.next() & 0x3fffffff)
		}
		words = append(words, a...)
		words = append(words, b...)
	}
	var sb strings.Builder
	sb.WriteString("\t.data\npterms:\n")
	dataLines(&sb, ".word", words)
	sb.WriteString(`
	.text
main:
	li   $s0, 0 !f           ; pair index
	li   $s1, 0 !f           ; order accumulator
`)
	sb.WriteString("\tli   $s5, " + strconv.Itoa(npairs) + " !f\n")
	sb.WriteString(`	j    PAIR !s

PAIR:
	move $t9, $s0
	.msonly addi $s0, $s0, 1 !f
	.msonly slt  $at, $s0, $s5   ; early loop-exit test
	sll  $t0, $t9, 6             ; pair base: 2 vectors x 8 words x 4 bytes
	addi $t1, $t0, 32            ; second vector
	li   $t2, 8                  ; words left
CMPW:
	lw   $t3, pterms($t0)
	lw   $t4, pterms($t1)
	bne  $t3, $t4, DIFFER
	addi $t0, $t0, 4
	addi $t1, $t1, 4
	addi $t2, $t2, -1
	bnez $t2, CMPW
	j    FOLD                    ; equal vectors
DIFFER:
	slt  $t5, $t3, $t4
	sll  $t5, $t5, 1
	addi $t5, $t5, -1            ; -1 if a>b, +1 if a<b
	add  $s1, $s1, $t5
FOLD:
	.msonly release $s1          ; may not have been written (equal case)
	.msonly bnez $at, PAIR !s
	.sconly addi $s0, $s0, 1
	.sconly bne  $s0, $s5, PAIR
DONE:
	move $a0, $s1
` + printInt + exitSeq + `
	.task main targets=PAIR create=$s0,$s1,$s5
	.task PAIR targets=PAIR,DONE create=$s0,$s1
	.task DONE
`)
	return sb.String()
}
