package workloads

import "strconv"

// Extra workloads beyond the paper's suite: conventional kernels that
// exercise the same machinery and give library users more substrates to
// experiment with. They are excluded from the paper-table harness
// (Workload.Extra) but run in the full test matrix.

func init() {
	register(&Workload{
		Name:         "matmul",
		Description:  "integer matrix multiply, one result row per task (extra)",
		Extra:        true,
		DefaultScale: 24, // matrix dimension
		TestScale:    10,
		Source:       matmulSource,
		Paper:        extraPaperRow,
	})
	register(&Workload{
		Name:         "sieve",
		Description:  "sieve of Eratosthenes, one prime's clearing pass per task (extra)",
		Extra:        true,
		DefaultScale: 2000, // sieve size
		TestScale:    300,
		Source:       sieveSource,
		Paper:        extraPaperRow,
	})
	register(&Workload{
		Name:         "hashmix",
		Description:  "per-key hash via a function task; ABI-conservative hand annotations (extra)",
		Extra:        true,
		DefaultScale: 300, // number of keys
		TestScale:    60,
		Source:       hashmixSource,
		Paper:        extraPaperRow,
	})
	register(&Workload{
		Name:         "bsearch",
		Description:  "binary search per query via a function task with a data-dependent loop (extra)",
		Extra:        true,
		DefaultScale: 256, // number of queries
		TestScale:    50,
		Source:       bsearchSource,
		Paper:        extraPaperRow,
	})
}

// extraPaperRow marks reference numbers as not-applicable (non-zero so
// the presence checks pass, but flagged by Extra).
var extraPaperRow = PaperRow{
	ScalarM: -1, MultiM: -1, PctIncrease: -1,
	InOrder1: PaperPerf{ScalarIPC: -1, Speedup4: -1, Speedup8: -1},
	InOrder2: PaperPerf{ScalarIPC: -1, Speedup4: -1, Speedup8: -1},
	OOO1:     PaperPerf{ScalarIPC: -1, Speedup4: -1, Speedup8: -1},
	OOO2:     PaperPerf{ScalarIPC: -1, Speedup4: -1, Speedup8: -1},
}

func matmulSource(scale int) string {
	n := scale
	src := newSource(0)
	src = append(src, "\t.data\n"...)
	src = append(src, "ma:\t.space "+strconv.Itoa(4*n*n)+"\n"...)
	src = append(src, "mpad1:\t.space 192\n"...)
	src = append(src, "mb:\t.space "+strconv.Itoa(4*n*n)+"\n"...)
	src = append(src, "mpad2:\t.space 192\n"...)
	src = append(src, "mc:\t.space "+strconv.Itoa(4*n*n)+"\n"...)
	src = append(src, `
	.text
main:
	; init: a[i][j] = i+j, b[i][j] = i-j (single init task per row)
	li   $s0, 0 !f
`...)
	src = append(src, "\tli   $s5, "+strconv.Itoa(n)+" !f\n"...)
	src = append(src, "\tli   $s6, "+strconv.Itoa(4*n)+" !f\n"...)
	src = append(src, `	j    MIROW !s
MIROW:
	move $t9, $s0
	.msonly addi $s0, $s0, 1 !f
	.msonly slt  $at, $s0, $s5
	mul  $t0, $t9, $s6       ; row base
	li   $t1, 0
MICOL:
	add  $t2, $t9, $t1
	sll  $t3, $t1, 2
	add  $t3, $t3, $t0
	sw   $t2, ma($t3)
	sub  $t2, $t9, $t1
	sw   $t2, mb($t3)
	addi $t1, $t1, 1
	bne  $t1, $s5, MICOL
	.msonly bnez $at, MIROW !s
	.sconly addi $s0, $s0, 1
	.sconly bne  $s0, $s5, MIROW

MSETUP:
	li   $s0, 0 !f
	j    MROW !s

	; c[i] = a[i] * b : one result row per task
MROW:
	move $t9, $s0
	.msonly addi $s0, $s0, 1 !f
	.msonly slt  $at, $s0, $s5
	mul  $t0, $t9, $s6       ; a row base / c row base
	li   $t1, 0              ; j
MCOL:
	li   $t2, 0              ; k
	li   $t3, 0              ; acc
MDOT:
	sll  $t4, $t2, 2
	add  $t4, $t4, $t0
	lw   $t5, ma($t4)        ; a[i][k]
	mul  $t6, $t2, $s6
	sll  $t7, $t1, 2
	add  $t6, $t6, $t7
	lw   $t7, mb($t6)        ; b[k][j]
	mul  $t5, $t5, $t7
	add  $t3, $t3, $t5
	addi $t2, $t2, 1
	bne  $t2, $s5, MDOT
	sll  $t4, $t1, 2
	add  $t4, $t4, $t0
	sw   $t3, mc($t4)
	addi $t1, $t1, 1
	bne  $t1, $s5, MCOL
	.msonly bnez $at, MROW !s
	.sconly addi $s0, $s0, 1
	.sconly bne  $s0, $s5, MROW

MDONE:
	; checksum the diagonal
	li   $t0, 0
	li   $s1, 0
MCHK:
	mul  $t1, $t0, $s6
	sll  $t2, $t0, 2
	add  $t1, $t1, $t2
	lw   $t2, mc($t1)
	add  $s1, $s1, $t2
	addi $t0, $t0, 1
	bne  $t0, $s5, MCHK
	move $a0, $s1
`+printInt+exitSeq+`
	.task main targets=MIROW create=$s0,$s5,$s6
	.task MIROW targets=MIROW,MSETUP create=$s0
	.task MSETUP targets=MROW create=$s0
	.task MROW targets=MROW,MDONE create=$s0
	.task MDONE
`...)
	return text(src)
}

func sieveSource(scale int) string {
	n := scale
	src := newSource(0)
	src = append(src, "\t.data\n"...)
	src = append(src, "flags:\t.space "+strconv.Itoa(n)+"\n"...)
	src = append(src, `
	.text
main:
	li   $s0, 2 !f           ; candidate
`...)
	src = append(src, "\tli   $s5, "+strconv.Itoa(n)+" !f\n"...)
	src = append(src, `	j    CAND !s

	; one candidate per task: if still prime, clear its multiples — the
	; clearing loops have wildly different lengths (load imbalance), and
	; a task may read a flag a predecessor is still clearing (squashes)
CAND:
	move $t9, $s0
	.msonly addi $s0, $s0, 1 !f
	.msonly mul  $t8, $s0, $s0
	.msonly slt  $t8, $t8, $s5
	lbu  $t0, flags($t9)
	bnez $t0, CNEXT          ; composite already
	add  $t1, $t9, $t9       ; first multiple: 2p
	li   $t2, 1
CLEAR:
	slt  $at, $t1, $s5
	beqz $at, CNEXT
	sb   $t2, flags($t1)
	add  $t1, $t1, $t9
	j    CLEAR
CNEXT:
	.sconly addi $s0, $s0, 1
	.sconly mul  $t8, $s0, $s0
	.sconly slt  $t8, $t8, $s5
	bnez $t8, CAND !s

COUNT:
	; count primes up to n
	li   $t0, 2
	li   $s1, 0
CLOOP:
	lbu  $t1, flags($t0)
	bnez $t1, CSKIP
	addi $s1, $s1, 1
CSKIP:
	addi $t0, $t0, 1
	bne  $t0, $s5, CLOOP
	move $a0, $s1
`+printInt+exitSeq+`
	.task main targets=CAND create=$s0,$s5
	.task CAND targets=CAND,COUNT create=$s0
	.task COUNT
`...)
	return text(src)
}

// hashmixSource exercises the paper's function tasks: each loop
// iteration calls a hash routine that is its own task (stop-tagged jal
// with pushra/call metadata) and accumulates the result in the
// continuation task. The hash body is hand-annotated the way a careful
// author following the ABI return contract writes it: every written
// register the ABI calls live-at-return ($v0 plus the $v1/$s7 scratch)
// goes into the create mask and is forwarded at its last write — tight
// against the documented contract, looser than the flow-derived truth
// (no caller reads $v1 or $s7). mslint reports that slack as MS002 /
// MS017 findings; they are the suite's pinned advisory findings.
func hashmixSource(scale int) string {
	n := scale
	src := newSource(tableBytes(".word", n, width(99999)))
	src = append(src, "\t.data\nhkeys:\n"...)
	keys := table{directive: ".word"}
	r := newRNG(0x4a51)
	for i := 0; i < n; i++ {
		src = keys.put(src, r.intn(100000))
	}
	src = keys.end(src)
	src = append(src, `
	.text
main:
	li   $s0, 0 !f           ; key index
	li   $s1, 0 !f           ; checksum
`...)
	src = append(src, "\tli   $s5, "+strconv.Itoa(n)+" !f\n"...)
	src = append(src, `	j    HLOOK !s

	; one key per round trip: load the argument, call the hash function
	; as its own task
HLOOK:
	sll  $t0, $s0, 2
	lw   $a0, hkeys($t0) !f
	jal  HASH !s !f
HCONT:
	add  $s1, $s1, $v0 !f
	addi $s0, $s0, 1 !f
	bne  $s0, $s5, HLOOK !s

HDONE:
	move $a0, $s1
`+printInt+exitSeq+`

	; mix one key; $v1 and $s7 are scratch the ABI view keeps live
HASH:
	sll  $t0, $a0, 3
	xor  $v1, $t0, $a0 !f
	srl  $t1, $v1, 5
	add  $s7, $v1, $t1 !f
	andi $t2, $s7, 1023
	mul  $t3, $t2, 37
	add  $v0, $t3, $a0
	xor  $v0, $v0, $s7 !f
	jr   $ra !s

	.task main targets=HLOOK create=$s0,$s1,$s5
	.task HLOOK targets=HASH pushra=HCONT call=HASH create=$a0,$ra
	.task HASH targets=ret create=$v0,$v1,$s7
	.task HCONT targets=HLOOK,HDONE create=$s0,$s1
	.task HDONE
`...)
	return text(src)
}

// bsearchSource: each query task calls a binary-search function task
// whose loop length is data-dependent (variable-latency function tasks).
// Like hashmix, the hand annotations follow the ABI return contract:
// the probe scratch ($s6) and depth counter ($v1) are created and
// released even though no caller reads them.
func bsearchSource(scale int) string {
	n := scale
	const tsize = 64
	src := newSource(tableBytes(".word", tsize, width(3*tsize)) + tableBytes(".word", n, width(3*tsize+9)))
	src = append(src, "\t.data\nbtable:\n"...)
	table1 := table{directive: ".word"}
	for i := 0; i < tsize; i++ {
		src = table1.put(src, 3*i+1)
	}
	src = table1.end(src)
	src = append(src, "bqueries:\n"...)
	queries := table{directive: ".word"}
	r := newRNG(0xb5ea)
	for i := 0; i < n; i++ {
		src = queries.put(src, r.intn(3*tsize+10))
	}
	src = queries.end(src)
	src = append(src, `
	.text
main:
	li   $s0, 0 !f           ; query index
	li   $s1, 0 !f           ; checksum
`...)
	src = append(src, "\tli   $s5, "+strconv.Itoa(n)+" !f\n"...)
	src = append(src, `	j    QLOOK !s

QLOOK:
	sll  $t0, $s0, 2
	lw   $a0, bqueries($t0) !f
	jal  BFIND !s !f
QCONT:
	add  $s1, $s1, $v0 !f
	addi $s0, $s0, 1 !f
	bne  $s0, $s5, QLOOK !s

QDONE:
	move $a0, $s1
`+printInt+exitSeq+`

	; binary search for $a0; returns the index in $v0 or -1. The probe
	; value ($s6) and depth counter ($v1) are ABI-live scratch.
BFIND:
	li   $t0, 0              ; lo
`...)
	src = append(src, "\tli   $t1, "+strconv.Itoa(tsize)+"       ; hi\n"...)
	src = append(src, `	li   $v1, 0
	li   $s6, 0
BLOOP:
	slt  $at, $t0, $t1
	beqz $at, BMISS
	add  $t2, $t0, $t1
	srl  $t2, $t2, 1
	sll  $t3, $t2, 2
	lw   $s6, btable($t3)
	addi $v1, $v1, 1
	beq  $s6, $a0, BHIT
	slt  $at, $s6, $a0
	beqz $at, BHI
	addi $t0, $t2, 1
	j    BLOOP
BHI:
	move $t1, $t2
	j    BLOOP
BHIT:
	move $v0, $t2 !f
	.msonly release $v1
	.msonly release $s6
	jr   $ra !s
BMISS:
	li   $v0, -1 !f
	.msonly release $v1
	.msonly release $s6
	jr   $ra !s

	.task main targets=QLOOK create=$s0,$s1,$s5
	.task QLOOK targets=BFIND pushra=QCONT call=BFIND create=$a0,$ra
	.task BFIND targets=ret create=$v0,$v1,$s6
	.task QCONT targets=QLOOK,QDONE create=$s0,$s1
	.task QDONE
`...)
	return text(src)
}
