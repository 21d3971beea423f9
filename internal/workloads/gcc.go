package workloads

import "strconv"

// gcc is the irregular-code workload (paper §5.3: "execution time is
// distributed uniformly across a great deal of code... squashes (both
// prediction and memory order) result in near-sequential execution of the
// important tasks. Accordingly, the overheads in multiscalar execution
// result in a slow down in some cases."). The kernel is a synthetic IR
// pass: small per-node tasks dispatch on a data-dependent opcode; some
// nodes bump shared symbol-table counters (memory-order violations), and
// some divert through a fixup task, making inter-task control hard to
// predict (the paper's gcc task prediction is only ~81%).
func init() {
	register(&Workload{
		Name:         "gcc",
		Description:  "irregular IR-pass over per-node tasks with shared tables",
		DefaultScale: 400, // IR nodes
		TestScale:    60,
		Source:       gccSource,
		Paper: PaperRow{
			ScalarM: 66.48, MultiM: 75.31, PctIncrease: 13.3,
			InOrder1: PaperPerf{ScalarIPC: 0.81, Speedup4: 1.02, Speedup8: 1.08, Pred4: 81.2, Pred8: 80.9},
			InOrder2: PaperPerf{ScalarIPC: 1.04, Speedup4: 0.92, Speedup8: 0.98, Pred4: 81.2, Pred8: 80.9},
			OOO1:     PaperPerf{ScalarIPC: 0.83, Speedup4: 1.06, Speedup8: 1.13, Pred4: 81.1, Pred8: 80.6},
			OOO2:     PaperPerf{ScalarIPC: 1.15, Speedup4: 0.91, Speedup8: 0.95, Pred4: 81.1, Pred8: 80.6},
		},
	})
}

// Node layout: opcode, a, b, sym — 4 words.
func gccSource(scale int) string {
	nnodes := scale
	src := newSource(tableBytes(".word", 4*nnodes, 2))
	src = append(src, "\t.data\nnodes:\n"...)
	t := table{directive: ".word"}
	r := newRNG(0x9cc)
	for i := 0; i < nnodes; i++ {
		d := r.intn(20)
		op := 0
		switch {
		case d < 6:
			op = 0
		case d < 12:
			op = 1
		case d < 15:
			op = 2
		default:
			op = 3
		}
		src = t.put(src, op)
		src = t.put(src, r.intn(100))
		src = t.put(src, 1+r.intn(50))
		src = t.put(src, r.intn(4))
	}
	src = t.end(src)
	src = append(src, "symtab:\t.space 64\n"...) // 8 shared counters
	src = append(src, "outlist:\t.word 0\n"...)  // emitted-node count (shared)
	src = append(src, `
	.text
main:
	li   $s0, 0 !f           ; node index
	li   $s1, 0 !f           ; checksum
`...)
	src = append(src, "\tli   $s5, "+strconv.Itoa(nnodes)+" !f\n"...)
	src = append(src, `	j    NODE !s

NODE:
	move $t9, $s0
	.msonly addi $s0, $s0, 1 !f
	.msonly slt  $at, $s0, $s5 !f
	sll  $t0, $t9, 4         ; node base
	lw   $t1, nodes($t0)     ; opcode
	lw   $t2, nodes+4($t0)   ; a
	lw   $t3, nodes+8($t0)   ; b
	; dispatch
	beqz $t1, OPFOLD
	addi $t4, $t1, -1
	beqz $t4, OPSYM
	addi $t4, $t1, -2
	beqz $t4, OPCHAIN
	; opcode 3: emit -> leave through the fixup task
	lw   $t5, outlist
	addi $t5, $t5, 1
	sw   $t5, outlist
	.msonly release $s1
	j    FIXUP !s
OPFOLD:
	mul  $t4, $t2, $t3
	add  $s1, $s1, $t4 !f
	j    NEXT
OPSYM:
	lw   $t4, nodes+12($t0)  ; sym
	sll  $t4, $t4, 3
	lw   $t5, symtab($t4)    ; shared counter: violation-prone
	add  $t5, $t5, $t2
	sw   $t5, symtab($t4)
	.msonly release $s1
	j    NEXT
OPCHAIN:
	; data-dependent internal branching
	andi $t4, $t2, 3
CHAINLOOP:
	beqz $t4, CHAINOUT
	add  $t3, $t3, $t2
	srl  $t2, $t2, 1
	addi $t4, $t4, -1
	j    CHAINLOOP
CHAINOUT:
	add  $s1, $s1, $t3 !f
NEXT:
	.msonly beqz $at, DONE !st
	.msonly j    NODE !s
	.sconly addi $s0, $s0, 1
	.sconly bne  $s0, $s5, NODE
	j    DONE !s

FIXUP:
	; rescan bookkeeping, then resume the node loop
	lw   $t6, outlist
	add  $s1, $s1, $t6
	.msonly release $s1
	.msonly beqz $at, DONE !st
	.msonly j    NODE !s
	.sconly addi $s0, $s0, 1
	.sconly bne  $s0, $s5, NODE
	j    DONE !s

DONE:
	lw   $t0, outlist
	add  $a0, $s1, $t0
`+printInt+exitSeq+`
	.task main targets=NODE create=$s0,$s1,$s5
	.task NODE targets=NODE,FIXUP,DONE create=$s0,$s1,$at
	.task FIXUP targets=NODE,DONE create=$s1
	.task DONE
`...)
	return text(src)
}
