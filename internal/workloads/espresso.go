package workloads

import "strconv"

// espresso reduces to massive_count, its hottest function (paper §5.3:
// two main loops, each loop body a task; "in the first loop, each
// iteration executes a variable number of instructions (cycles are lost
// due to load balance); in the second loop (which contains a nested
// loop), an iteration of the outer loop includes all the iterations of
// the inner loop"). Loop 1 population-counts one cube per task with a
// data-dependent bit-clearing loop; loop 2 intersect-counts a cube
// against a sliding window of cubes as one nested-loop task.
func init() {
	register(&Workload{
		Name:         "espresso",
		Description:  "massive_count bit-counting loops over cube tasks",
		DefaultScale: 150, // cubes
		TestScale:    24,
		Source:       espressoSource,
		Paper: PaperRow{
			ScalarM: 526.50, MultiM: 615.95, PctIncrease: 17.0,
			InOrder1: PaperPerf{ScalarIPC: 0.85, Speedup4: 1.34, Speedup8: 1.59, Pred4: 85.9, Pred8: 85.9},
			InOrder2: PaperPerf{ScalarIPC: 1.11, Speedup4: 1.22, Speedup8: 1.41, Pred4: 85.3, Pred8: 85.2},
			OOO1:     PaperPerf{ScalarIPC: 0.88, Speedup4: 1.47, Speedup8: 1.73, Pred4: 85.9, Pred8: 85.8},
			OOO2:     PaperPerf{ScalarIPC: 1.31, Speedup4: 1.12, Speedup8: 1.25, Pred4: 85.3, Pred8: 85.4},
		},
	})
}

const cubeWords = 4

func espressoSource(scale int) string {
	ncubes := scale
	src := newSource(tableBytes(".word", cubeWords*ncubes, width(0x7fffffff)))
	src = append(src, "\t.data\ncubes:\n"...)
	t := table{directive: ".word"}
	r := newRNG(0xe59e550)
	for c := 0; c < ncubes; c++ {
		// Variable density: some cubes nearly empty, some dense — the
		// source of the load imbalance the paper calls out.
		density := r.intn(3)
		for w := 0; w < cubeWords; w++ {
			v := r.next()
			switch density {
			case 0:
				v &= v >> 7 & v >> 13 // sparse
			case 1:
				v &= 0xffff
			}
			src = t.put(src, int(v&0x7fffffff))
		}
	}
	src = t.end(src)
	src = append(src, `
	.text
main:
	li   $s0, 0 !f           ; cube index
	li   $s1, 0 !f           ; total bit count
`...)
	src = append(src, "\tli   $s5, "+strconv.Itoa(ncubes)+" !f\n"...)
	src = append(src, `	j    COUNT !s

	; ---- loop 1: popcount one cube per task (variable work) ----
COUNT:
	move $t9, $s0
	.msonly addi $s0, $s0, 1 !f
	.msonly slt  $at, $s0, $s5
	sll  $t0, $t9, 4         ; cube base (4 words x 4 bytes)
	li   $t1, 4              ; words
	li   $t2, 0              ; local count
CWORD:
	lw   $t3, cubes($t0)
CBIT:
	beqz $t3, CWNEXT
	addi $t4, $t3, -1
	and  $t3, $t3, $t4       ; clear lowest set bit
	addi $t2, $t2, 1
	j    CBIT
CWNEXT:
	addi $t0, $t0, 4
	addi $t1, $t1, -1
	bnez $t1, CWORD
	add  $s1, $s1, $t2 !f
	.msonly bnez $at, COUNT !s
	.sconly addi $s0, $s0, 1
	.sconly bne  $s0, $s5, COUNT
L2SETUP:
	li   $s0, 0 !f
	j    PAIRS !s

	; ---- loop 2: nested loop as one task: cube i vs next 4 cubes ----
PAIRS:
	move $t9, $s0
	.msonly addi $s0, $s0, 1 !f
	.msonly addi $t8, $s5, -4
	.msonly slt  $at, $s0, $t8
	sll  $t0, $t9, 4         ; cube i base
	li   $t5, 4              ; window
	move $t6, $t0
PWIN:
	addi $t6, $t6, 16        ; next cube base
	li   $t1, 4
	move $t2, $t0
	move $t3, $t6
PWORD:
	lw   $t4, cubes($t2)
	lw   $t7, cubes($t3)
	and  $t4, $t4, $t7
	beqz $t4, PWNEXT
	addi $s1, $s1, 1         ; non-empty intersection word
PWNEXT:
	addi $t2, $t2, 4
	addi $t3, $t3, 4
	addi $t1, $t1, -1
	bnez $t1, PWORD
	addi $t5, $t5, -1
	bnez $t5, PWIN
	.msonly release $s1
	.msonly bnez $at, PAIRS !s
	.sconly addi $s0, $s0, 1
	.sconly addi $t8, $s5, -4
	.sconly bne  $s0, $t8, PAIRS
DONE:
	move $a0, $s1
`+printInt+exitSeq+`
	.task main targets=COUNT create=$s0,$s1,$s5
	.task COUNT targets=COUNT,L2SETUP create=$s0,$s1
	.task L2SETUP targets=PAIRS create=$s0
	.task PAIRS targets=PAIRS,DONE create=$s0,$s1
	.task DONE
`...)
	return text(src)
}
