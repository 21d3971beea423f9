package workloads

import "strconv"

// tomcatv is the SPECfp92 mesh-generation kernel reduced to its essence
// (paper §5.3: "nearly all time is spent in a loop whose iterations are
// independent", with the higher-issue configurations "stymied by
// contention on the cache to memory bus"). Two row-task loops: one
// initializes a grid of doubles, one applies a 5-point stencil and folds
// a per-row partial sum into a running checksum. Rows are independent;
// the arrays exceed the data banks, so the memory bus is the limiter.
func init() {
	register(&Workload{
		Name:         "tomcatv",
		Description:  "FP 5-point stencil over row tasks (tomcatv kernel)",
		DefaultScale: 48, // grid dimension
		TestScale:    14,
		Source:       tomcatvSource,
		Paper: PaperRow{
			ScalarM: 582.22, MultiM: 590.66, PctIncrease: 1.4,
			InOrder1: PaperPerf{ScalarIPC: 0.80, Speedup4: 3.00, Speedup8: 4.65, Pred4: 99.2, Pred8: 99.2},
			InOrder2: PaperPerf{ScalarIPC: 0.97, Speedup4: 2.71, Speedup8: 3.96, Pred4: 99.2, Pred8: 99.2},
			OOO1:     PaperPerf{ScalarIPC: 0.96, Speedup4: 2.92, Speedup8: 4.17, Pred4: 99.2, Pred8: 99.2},
			OOO2:     PaperPerf{ScalarIPC: 1.43, Speedup4: 2.16, Speedup8: 2.93, Pred4: 99.2, Pred8: 99.2},
		},
	})
}

func tomcatvSource(scale int) string {
	n := scale // n x n grid of doubles
	rowBytes := n * 8
	src := newSource(0)
	src = append(src, "\t.data\n"...)
	src = append(src, "grida:\t.space "+strconv.Itoa(n*rowBytes)+"\n"...)
	src = append(src, "gridpad:\t.space 192\n"...) // odd block offset: avoid same-set conflicts between the grids
	src = append(src, "gridb:\t.space "+strconv.Itoa(n*rowBytes)+"\n"...)
	src = append(src, "quarter:\t.double 0.25\n"...)
	src = append(src, "scalef:\t.double 0.0078125\n"...) // 1/128 keeps values bounded
	src = append(src, `
	.text
main:
	li   $s0, 0 !f           ; row index
`...)
	src = append(src, "\tli   $s5, "+strconv.Itoa(n)+" !f\n"...)
	src = append(src, "\tli   $s6, "+strconv.Itoa(rowBytes)+" !f\n"...)
	src = append(src, `	l.d  $f30, scalef !f
	mtc1 $f20, $zero !f      ; checksum
	j    IROW !s

	; ---- init: grida[i][j] = (i*j mod 97) * scale, one row per task ----
IROW:
	move $t9, $s0
	.msonly addi $s0, $s0, 1 !f
	.msonly slt  $at, $s0, $s5   ; early loop-exit test (paper §3.1.2)
	mul  $t0, $t9, $s6       ; row base offset
	li   $t1, 0              ; column
ICOL:
	mul  $t2, $t9, $t1
	li   $t3, 97
	rem  $t2, $t2, $t3
	mtc1 $f0, $t2
	mul.d $f0, $f0, $f30
	sll  $t4, $t1, 3
	add  $t4, $t4, $t0
	s.d  $f0, grida($t4)
	addi $t1, $t1, 1
	bne  $t1, $s5, ICOL
	.msonly bnez $at, IROW !s
	.sconly addi $s0, $s0, 1
	.sconly bne  $s0, $s5, IROW

ISETUP:
	li   $s0, 1 !f           ; stencil rows 1..n-2
	j    SROW !s

	; ---- stencil: gridb = 0.25*(N+S+E+W), partial sum per row ----
SROW:
	move $t9, $s0
	.msonly addi $s0, $s0, 1 !f
	.msonly addi $t8, $s5, -1
	.msonly slt  $at, $s0, $t8   ; early loop-exit test
	l.d  $f10, quarter
	mtc1 $f12, $zero         ; row partial sum
	mul  $t0, $t9, $s6       ; row base
	sub  $t5, $t0, $s6       ; row above
	add  $t6, $t0, $s6       ; row below
	li   $t1, 1              ; columns 1..n-2
SCOL:
	sll  $t4, $t1, 3
	add  $t2, $t4, $t5
	l.d  $f0, grida($t2)     ; north
	add  $t2, $t4, $t6
	l.d  $f2, grida($t2)     ; south
	add  $t2, $t4, $t0
	l.d  $f4, grida-8($t2)   ; west
	l.d  $f6, grida+8($t2)   ; east
	add.d $f0, $f0, $f2
	add.d $f4, $f4, $f6
	add.d $f0, $f0, $f4
	mul.d $f0, $f0, $f10
	add  $t2, $t4, $t0
	s.d  $f0, gridb($t2)
	add.d $f12, $f12, $f0
	addi $t1, $t1, 1
	addi $t7, $s5, -1
	bne  $t1, $t7, SCOL
	add.d $f20, $f20, $f12 !f
	.msonly bnez $at, SROW !s
	.sconly addi $s0, $s0, 1
	.sconly addi $t7, $s5, -1
	.sconly bne  $s0, $t7, SROW

SDONE:
	; print truncated checksum
	mfc1 $a0, $f20
`+printInt+exitSeq+`
	.task main targets=IROW create=$s0,$s5,$s6,$f20,$f30
	.task IROW targets=IROW,ISETUP create=$s0
	.task ISETUP targets=SROW create=$s0
	.task SROW targets=SROW,SDONE create=$s0,$f20
	.task SDONE
`...)
	return text(src)
}
