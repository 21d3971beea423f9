package workloads

import "strconv"

// xlisp is the lisp-interpreter workload (paper §5.3: like gcc it spreads
// time across much code, and "squashes result in near-sequential
// execution of the important tasks"; the paper is "less confident" that
// exploitable parallelism exists at all). The kernel evaluates a stream
// of small expression trees: a task is one eval of a tree through a
// suppressed recursive evaluator, and every evaluation conses a result
// cell by bumping a shared heap pointer in memory — the allocation
// recurrence that serializes real lisp systems.
func init() {
	register(&Workload{
		Name:         "xlisp",
		Description:  "recursive expression evaluation with cons allocation (xlisp kernel)",
		DefaultScale: 120, // expressions
		TestScale:    20,
		Source:       xlispSource,
		Paper: PaperRow{
			ScalarM: 46.61, MultiM: 54.34, PctIncrease: 16.6,
			InOrder1: PaperPerf{ScalarIPC: 0.80, Speedup4: 0.91, Speedup8: 0.94, Pred4: 80.6, Pred8: 79.5},
			InOrder2: PaperPerf{ScalarIPC: 1.03, Speedup4: 0.86, Speedup8: 0.88, Pred4: 80.0, Pred8: 78.7},
			OOO1:     PaperPerf{ScalarIPC: 0.82, Speedup4: 0.95, Speedup8: 1.01, Pred4: 75.6, Pred8: 77.1},
			OOO2:     PaperPerf{ScalarIPC: 1.12, Speedup4: 0.85, Speedup8: 0.90, Pred4: 74.6, Pred8: 76.5},
		},
	})
}

// Cons cell: car, cdr — 2 words. Negative car/cdr values are immediate
// leaves (value = -(x+1)); non-negative are cell indexes. xlispTrees
// generates nexprs trees, handing each cell to cell as it is numbered and
// each tree's root cell to root, and returns the number of cells. The
// trees are drawn afresh on every call, so a caller that wants the cells
// and the roots in separate tables calls it once for each.
func xlispTrees(nexprs int, cell func(car, cdr int), root func(int)) (ncells int) {
	r := newRNG(0x115b)
	var build func(depth int) int
	build = func(depth int) int {
		if depth <= 0 || r.intn(3) == 0 {
			return -(1 + r.intn(50)) // leaf
		}
		car := build(depth - 1)
		cdr := build(depth - 1)
		cell(car, cdr)
		ncells++
		return ncells - 1
	}
	for i := 0; i < nexprs; i++ {
		rt := build(3 + r.intn(3))
		if rt < 0 { // force at least one cell per expression
			cell(rt, -(1 + r.intn(50)))
			ncells++
			rt = ncells - 1
		}
		root(rt)
	}
	return ncells
}

func xlispSource(scale int) string {
	noCell, noRoot := func(int, int) {}, func(int) {}
	ncells := xlispTrees(scale, noCell, noRoot)
	w := max(width(-50), width(ncells-1))
	src := newSource(tableBytes(".word", 2*ncells, w) + tableBytes(".word", scale, w))
	src = append(src, "\t.data\ncells:\n"...)
	cells := table{directive: ".word"}
	xlispTrees(scale, func(car, cdr int) { src = cells.put(src, car); src = cells.put(src, cdr) }, noRoot)
	src = cells.end(src)
	src = append(src, "roots:\n"...)
	roots := table{directive: ".word"}
	xlispTrees(scale, noCell, func(rt int) { src = roots.put(src, rt) })
	src = roots.end(src)
	src = append(src, "heapptr:\t.word results\nresults:\t.space "...)
	src = append(src, strconv.Itoa(8*scale+64)...)
	src = append(src, "\n"...)
	src = append(src, `
	.text
main:
	li   $s0, 0 !f           ; expression index
	li   $s1, 0 !f           ; checksum
`...)
	src = append(src, "\tli   $s5, "+strconv.Itoa(scale)+" !f\n"...)
	src = append(src, `	j    EXPR !s

EXPR:
	move $t9, $s0
	.msonly addi $s0, $s0, 1 !f
	.msonly slt  $at, $s0, $s5
	sll  $t0, $t9, 2
	lw   $a0, roots($t0)
	jal  eval                ; suppressed recursive evaluator
	; eval pushes and pops frames: $sp is back to its entry value here and
	; will not move again in this task, so release it for the next task
	.msonly release $sp
	; cons the result: the shared heap pointer serializes tasks
	lw   $t1, heapptr
	sw   $v0, 0($t1)
	sw   $zero, 4($t1)
	addi $t1, $t1, 8
	sw   $t1, heapptr
	add  $s1, $s1, $v0 !f
	.msonly bnez $at, EXPR !s
	.sconly addi $s0, $s0, 1
	.sconly bne  $s0, $s5, EXPR
DONE:
	move $a0, $s1
`+printInt+exitSeq+`

	; eval(node in $a0) -> $v0: leaves are negative immediates; interior
	; cells evaluate car and cdr and combine
eval:
	bltz $a0, EVLEAF
	addi $sp, $sp, -12
	sw   $ra, 0($sp)
	sw   $a0, 4($sp)
	sll  $t2, $a0, 3         ; cell base
	lw   $a0, cells($t2)     ; car
	jal  eval
	sw   $v0, 8($sp)
	lw   $a0, 4($sp)
	sll  $t2, $a0, 3
	lw   $a0, cells+4($t2)   ; cdr
	jal  eval
	lw   $t3, 8($sp)
	add  $v0, $v0, $t3
	lw   $ra, 0($sp)
	addi $sp, $sp, 12
	jr   $ra
EVLEAF:
	addi $v0, $a0, 1
	sub  $v0, $zero, $v0     ; value = -(x+1) undone
	jr   $ra
	.task main targets=EXPR create=$s0,$s1,$s5
	.task EXPR targets=EXPR,DONE create=$s0,$s1,$sp
	.task DONE
`...)
	return text(src)
}
