package workloads

import (
	"strconv"
	"strings"
)

// compress is the LZW coder kernel (paper §5.3: "all time is spent in a
// single (big) loop with a complex flow of control within. This loop is
// bound by a recurrence (getting the index into the hash table) that
// results in a long critical path through the entire program. The problem
// is further aggravated by the huge size of the hash table, which results
// in a high rate of cache misses."). A task is one input byte: the
// prefix-code register chains every iteration to the next, and the hash
// probe walks tables far larger than the data banks.
func init() {
	register(&Workload{
		Name:         "compress",
		Description:  "LZW hash-table loop with a prefix-code recurrence",
		DefaultScale: 3000, // input bytes
		TestScale:    300,
		Source:       compressSource,
		Paper: PaperRow{
			ScalarM: 71.04, MultiM: 81.21, PctIncrease: 14.3,
			InOrder1: PaperPerf{ScalarIPC: 0.69, Speedup4: 1.17, Speedup8: 1.50, Pred4: 86.8, Pred8: 86.1},
			InOrder2: PaperPerf{ScalarIPC: 0.87, Speedup4: 1.04, Speedup8: 1.34, Pred4: 86.8, Pred8: 86.4},
			OOO1:     PaperPerf{ScalarIPC: 0.72, Speedup4: 1.23, Speedup8: 1.56, Pred4: 86.7, Pred8: 86.0},
			OOO2:     PaperPerf{ScalarIPC: 0.94, Speedup4: 1.07, Speedup8: 1.33, Pred4: 86.7, Pred8: 86.3},
		},
	})
}

// compressText: skewed byte distribution with repeats, so the dictionary
// actually extends matches (as English-like text does).
func compressText(n int) []int {
	r := newRNG(0xc03b)
	out := make([]int, n)
	for i := range out {
		if i >= 4 && r.intn(3) != 0 {
			out[i] = out[i-4] // frequent repeated 4-grams
		} else {
			out[i] = int('a') + r.intn(8)
		}
	}
	return out
}

func compressSource(scale int) string {
	text := compressText(scale)
	// "The huge size of the hash table results in a high rate of cache
	// misses" — 128 KB tables exceed the scalar 64 KB dcache and the
	// banked multiscalar storage alike.
	const hashBits = 15
	var sb strings.Builder
	sb.WriteString("\t.data\ninput:\n")
	dataLines(&sb, ".byte", text)
	sb.WriteString("\t.align 2\n")
	sb.WriteString("htab:\t.space " + strconv.Itoa(4<<hashBits) + "\n")
	sb.WriteString("tabpad:\t.space 192\n")                                // keep the two tables off the same cache sets
	sb.WriteString("codetab:\t.space " + strconv.Itoa(4<<hashBits) + "\n") // 16 KB
	sb.WriteString(`
	.text
main:
	li   $s0, 0 !f           ; input cursor
	li   $s1, 0 !f           ; ent (prefix code) — the recurrence
	li   $s2, 256 !f         ; next free code
	li   $s3, 0 !f           ; output checksum
`)
	sb.WriteString("\tli   $s5, " + strconv.Itoa(len(text)) + " !f\n")
	sb.WriteString(`	j    BYTE !s

BYTE:
	move $t9, $s0
	.msonly addi $s0, $s0, 1 !f
	.msonly slt  $at, $s0, $s5
	lbu  $t0, input($t9)     ; c
	sll  $t1, $t0, 12
	add  $t1, $t1, $s1       ; fcode = (c<<12) + ent
	; hash: (fcode ^ fcode>>7) & mask
	srl  $t2, $t1, 7
	xor  $t2, $t2, $t1
	andi $t2, $t2, 0x7fff
	sll  $t2, $t2, 2         ; table offset
	lw   $t3, htab($t2)      ; probe
	beq  $t3, $t1, HIT
	; miss: emit ent, insert fcode, restart prefix at c
	add  $s3, $s3, $s1 !f
	sw   $t1, htab($t2)
	sw   $s2, codetab($t2)
	addi $s2, $s2, 1 !f
	move $s1, $t0 !f
	j    NEXT
HIT:
	lw   $s1, codetab($t2) !f ; ent = codetab[h] — the recurrence load
NEXT:
	.msonly release $s2, $s3  ; unwritten on the hit path
	.msonly bnez $at, BYTE !s
	.sconly addi $s0, $s0, 1
	.sconly bne  $s0, $s5, BYTE
DONE:
	add  $a0, $s3, $s1
` + printInt + exitSeq + `
	.task main targets=BYTE create=$s0,$s1,$s2,$s3,$s5
	.task BYTE targets=BYTE,DONE create=$s0,$s1,$s2,$s3
	.task DONE
`)
	return sb.String()
}
