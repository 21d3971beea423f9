package workloads

// example is the paper's Figure 3 program, annotated exactly in the style
// of Figure 4: a task is one iteration of the outer loop (one complete
// linked-list search for one symbol, with the process/addlist calls
// suppressed into the task). Only the buffer cursor is live outside a
// task, so the create mask is tiny; it is updated and forwarded at the
// top of the task with a local copy kept for the body (Section 3.2.2).
//
// The input mirrors the paper's: 16 distinct symbols, each appearing
// `scale` times (the paper used 450), in near-round-robin order with
// deterministic perturbations so that concurrent searches for the same
// symbol (and hence memory-order squashes through process()'s counter
// update) occur but are rare — the paper's observation that "additions to
// the list become infrequent" also holds: all 16 symbols are inserted in
// the first iterations.
func init() {
	register(&Workload{
		Name:         "example",
		Description:  "Figure 3 linked-list symbol search (the paper's running example)",
		DefaultScale: 450,
		TestScale:    20,
		Source:       exampleSource,
		Paper: PaperRow{
			ScalarM: 1.05, MultiM: 1.09, PctIncrease: 4.2,
			InOrder1: PaperPerf{ScalarIPC: 0.79, Speedup4: 2.79, Speedup8: 3.96, Pred4: 99.9, Pred8: 99.9},
			InOrder2: PaperPerf{ScalarIPC: 1.07, Speedup4: 2.43, Speedup8: 3.47, Pred4: 99.9, Pred8: 99.9},
			OOO1:     PaperPerf{ScalarIPC: 0.86, Speedup4: 3.27, Speedup8: 4.86, Pred4: 99.9, Pred8: 99.9},
			OOO2:     PaperPerf{ScalarIPC: 1.28, Speedup4: 2.41, Speedup8: 3.57, Pred4: 99.9, Pred8: 99.9},
		},
	})
}

// exampleSymbols appends the input token stream to src as one .word
// table: 16 symbols, each `occurrences` times, near round-robin with
// deterministic swaps.
func exampleSymbols(src []byte, occurrences int) []byte {
	const nsym = 16
	n := nsym * occurrences
	sym := func(i int) int { return 1000 + 7*(i%nsym) }
	// Perturb: swap i with i+1..i+3 every 13th position (keeps most
	// repeats 16 apart — farther than the unit count — while creating
	// occasional nearby repeats that exercise memory-order squashes).
	// The swaps never overlap, so each run of 13 is written as soon as
	// its swap is drawn.
	t := table{directive: ".word"}
	r := newRNG(0x5eed)
	for i := 0; i < n; i += 13 {
		j := -1
		if i+3 < n {
			j = i + 1 + r.intn(3)
		}
		for k := i; k < min(i+13, n); k++ {
			v := k
			if k == i && j >= 0 {
				v = j
			} else if k == j {
				v = i
			}
			src = t.put(src, sym(v))
		}
	}
	return t.end(src)
}

func exampleSource(scale int) string {
	src := newSource(tableBytes(".word", 16*scale, 4))
	src = append(src, "\t.data\n"...)
	src = append(src, "listhd:\t.word 0\n"...)
	src = append(src, "listtail:\t.word 0\n"...)
	src = append(src, "freeptr:\t.word pool\n"...)
	src = append(src, "buffer:\n"...)
	src = exampleSymbols(src, scale)
	src = append(src, "bufend:\n"...)
	src = append(src, "pool:\t.space 1024\n"...) // 16 nodes x 12 bytes, rounded up
	src = append(src, `
	.text
main:
	la   $s0, buffer !f
	la   $s4, bufend !f
	j    OUTER !s

OUTER:
	; get the symbol for which to search; the multiscalar build bumps the
	; cursor early with a local copy (Figure 4 forwards the induction
	; variable first); the scalar build keeps the sequential shape
	.msonly move $t9, $s0
	.msonly addi $s0, $s0, 4 !f
	.msonly lw   $t0, 0($t9)  ; symbol = SYMVAL(buffer[indx])
	.sconly lw   $t0, 0($s0)
	lw   $t1, listhd          ; list = listhd
INNER:
	beqz $t1, INNERFALLOUT    ; if (!list) break
	lw   $t2, 0($t1)          ; LELE(list)
	beq  $t2, $t0, FOUNDSYM
	lw   $t1, 4($t1)          ; list = LNEXT(list)
	j    INNER
FOUNDSYM:
	move $a0, $t1
	jal  process              ; suppressed call: runs inside this task
	j    SKIPADD
INNERFALLOUT:
	move $a0, $t0
	jal  addlist              ; suppressed call
SKIPADD:
	.sconly addi $s0, $s0, 4  ; sequential habit: bump at the bottom
	bne  $s0, $s4, OUTER !s

OUTERFALLOUT:
	; checksum: sum of ele*count over the list
	lw   $t1, listhd
	li   $s1, 0
CHK:
	beqz $t1, CHKDONE
	lw   $t2, 0($t1)
	lw   $t3, 8($t1)
	mul  $t4, $t2, $t3
	add  $s1, $s1, $t4
	lw   $t1, 4($t1)
	j    CHK
CHKDONE:
	move $a0, $s1
`+printInt+exitSeq+`

process:
	lw   $t3, 8($a0)          ; count++
	addi $t3, $t3, 1
	sw   $t3, 8($a0)
	jr   $ra

addlist:
	lw   $t4, freeptr
	sw   $a0, 0($t4)          ; ele
	sw   $zero, 4($t4)        ; next
	sw   $zero, 8($t4)        ; count
	lw   $t5, listtail
	beqz $t5, FIRSTNODE
	sw   $t4, 4($t5)          ; tail->next = node
	j    SETTAIL
FIRSTNODE:
	sw   $t4, listhd
SETTAIL:
	sw   $t4, listtail
	addi $t5, $t4, 12
	sw   $t5, freeptr
	jr   $ra

	.task main targets=OUTER create=$s0,$s4
	.task OUTER targets=OUTER,OUTERFALLOUT create=$s0
	.task OUTERFALLOUT
`...)
	return text(src)
}
