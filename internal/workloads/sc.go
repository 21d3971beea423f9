package workloads

import "strconv"

// sc is the spreadsheet-evaluation kernel (paper §5.3: RealEvalAll
// restructured "to build a work list of the cells to be evaluated and to
// call RealEvalOne for each of the cells on the work list", with
// RealEvalOne suppressed into the task; "since RealEvalOne executes for
// hundreds of cycles, the load imbalance between the work at each cell is
// enormous"). A task is one work-list entry; eval work varies widely per
// cell, and cells whose formula references the previous cell's result
// introduce occasional memory-order violations.
func init() {
	register(&Workload{
		Name:         "sc",
		Description:  "spreadsheet cell evaluation over a work list (sc kernel)",
		DefaultScale: 220, // work-list entries
		TestScale:    30,
		Source:       scSource,
		Paper: PaperRow{
			ScalarM: 409.06, MultiM: 460.79, PctIncrease: 12.6,
			InOrder1: PaperPerf{ScalarIPC: 0.75, Speedup4: 1.36, Speedup8: 1.68, Pred4: 90.5, Pred8: 90.0},
			InOrder2: PaperPerf{ScalarIPC: 0.94, Speedup4: 1.28, Speedup8: 1.56, Pred4: 90.0, Pred8: 89.5},
			OOO1:     PaperPerf{ScalarIPC: 0.80, Speedup4: 1.42, Speedup8: 1.75, Pred4: 90.5, Pred8: 90.0},
			OOO2:     PaperPerf{ScalarIPC: 1.10, Speedup4: 1.24, Speedup8: 1.50, Pred4: 90.2, Pred8: 90.2},
		},
	})
}

// Cell layout: type(0=const sum,1=references previous cell), opA, opB,
// iters, result — 5 words.
const cellWords = 5

func scSource(scale int) string {
	ncells := scale
	src := newSource(tableBytes(".word", cellWords*ncells, 2))
	src = append(src, "\t.data\ncells:\n"...)
	t := table{directive: ".word"}
	r := newRNG(0x5c5c)
	for c := 0; c < ncells; c++ {
		typ := 0
		if c > 0 && r.intn(2) == 0 {
			typ = 1 // formula references the previous cell's result
		}
		src = t.put(src, typ)
		src = t.put(src, 3+r.intn(50))
		src = t.put(src, 1+r.intn(9))
		src = t.put(src, 1+r.intn(30))
		src = t.put(src, 0)
	}
	src = t.end(src)
	src = append(src, `
	.text
main:
	li   $s0, 0 !f           ; work-list index
	li   $s1, 0 !f           ; grand total
`...)
	src = append(src, "\tli   $s5, "+strconv.Itoa(ncells)+" !f\n"...)
	src = append(src, `	j    CELL !s

CELL:
	move $t9, $s0
	.msonly addi $s0, $s0, 1 !f
	.msonly slt  $at, $s0, $s5
	; cell base = index * 20
	sll  $t0, $t9, 2
	add  $t0, $t0, $t9
	sll  $t0, $t0, 2
	move $a0, $t0
	jal  evalone             ; suppressed call: runs inside this task
	add  $s1, $s1, $v0 !f
	.msonly bnez $at, CELL !s
	.sconly addi $s0, $s0, 1
	.sconly bne  $s0, $s5, CELL
DONE:
	move $a0, $s1
`+printInt+exitSeq+`

	; evalone(cellOffset in $a0) -> $v0: variable-length formula
evalone:
	lw   $t1, cells($a0)     ; type
	lw   $t2, cells+4($a0)   ; opA
	lw   $t3, cells+8($a0)   ; opB
	lw   $t4, cells+12($a0)  ; iters
	beqz $t1, EVCONST
	; type 1: start from the previous cell's result (may still be
	; speculative in a predecessor task -> possible squash)
	lw   $t5, cells-4($a0)
	j    EVLOOP
EVCONST:
	li   $t5, 0
EVLOOP:
	mul  $t6, $t2, $t3
	add  $t5, $t5, $t6
	addi $t2, $t2, 1
	addi $t4, $t4, -1
	bnez $t4, EVLOOP
	sw   $t5, cells+16($a0)  ; result
	move $v0, $t5
	jr   $ra
	.task main targets=CELL create=$s0,$s1,$s5
	.task CELL targets=CELL,DONE create=$s0,$s1
	.task DONE
`...)
	return text(src)
}
