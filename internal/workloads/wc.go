package workloads

import "strconv"

// wc counts lines, words and characters (paper §5.3: a loop containing an
// inner loop and a switch). A task is one 64-byte chunk: each task counts
// locally — fully parallel — then folds its local counts into the running
// totals at the end of the task, and forwards a one-bit "ended inside a
// word" state used by its successor's word-boundary fixup. The fixup is
// consumed late, so the state chain overlaps with the scan work.
func init() {
	register(&Workload{
		Name:         "wc",
		Description:  "line/word/char counting over 64-byte chunk tasks (GNU wc kernel)",
		DefaultScale: 256, // chunks
		TestScale:    24,
		Source:       wcSource,
		Paper: PaperRow{
			ScalarM: 1.22, MultiM: 1.43, PctIncrease: 17.3,
			InOrder1: PaperPerf{ScalarIPC: 0.89, Speedup4: 2.37, Speedup8: 4.33, Pred4: 99.9, Pred8: 99.9},
			InOrder2: PaperPerf{ScalarIPC: 1.09, Speedup4: 2.36, Speedup8: 4.27, Pred4: 99.9, Pred8: 99.9},
			OOO1:     PaperPerf{ScalarIPC: 0.89, Speedup4: 2.37, Speedup8: 4.34, Pred4: 99.9, Pred8: 99.9},
			OOO2:     PaperPerf{ScalarIPC: 1.13, Speedup4: 2.34, Speedup8: 4.26, Pred4: 99.9, Pred8: 99.9},
		},
	})
}

// wcText appends deterministic prose to src as .ascii lines: words of
// 2-9 letters, lines of 4-11 words, padded so the total is n bytes, a
// multiple of 64.
func wcText(src []byte, n int) []byte {
	r := newRNG(0x77c)
	i := 0 // bytes written
	wordsInLine := 0
	lineLen := 4 + r.intn(8)
	for i < n-1 {
		wl := 2 + r.intn(8)
		if col := i % 64; col != 0 && col+wl < 64 && i+wl < n-1 {
			// The word lies inside the current .ascii line and ends
			// before the text does: its letters go straight in.
			for k := 0; k < wl; k++ {
				src = append(src, 'a'+byte(r.intn(26)))
			}
			i += wl
		} else {
			for k := 0; k < wl && i < n-1; k++ {
				src = appendASCII(src, i, 'a'+byte(r.intn(26)))
				i++
			}
		}
		wordsInLine++
		if wordsInLine >= lineLen {
			src = appendASCII(src, i, '\n')
			i++
			wordsInLine = 0
			lineLen = 4 + r.intn(8)
		} else if i < n-1 {
			src = appendASCII(src, i, ' ')
			i++
		}
	}
	for ; i < n; i++ {
		src = appendASCII(src, i, '\n')
	}
	return endASCII(src, n)
}

// wcNewlines bounds the newlines in wcText's n bytes: a line holds at
// least four two-letter words, and one newline may pad the end.
func wcNewlines(n int) int { return n/12 + 1 }

func wcSource(scale int) string {
	n := scale * 64
	src := newSource(asciiBytes(n, wcNewlines(n)))
	src = append(src, "\t.data\ntext:\n"...)
	src = wcText(src, n)
	src = append(src, `
	.text
main:
	li   $s0, 0 !f           ; cursor
	li   $s1, 0 !f           ; lines
	li   $s2, 0 !f           ; words
	li   $s3, 0 !f           ; chars
	li   $s7, 1 !f           ; previous chunk ended in whitespace
`...)
	src = append(src, "\tli   $s5, "+strconv.Itoa(n)+" !f\n"...)
	src = append(src, `	j    CHUNK !s

CHUNK:
	move $t9, $s0
	.msonly addi $s0, $s0, 64 !f
	.msonly slt  $at, $s0, $s5   ; early loop-exit test (paper §3.1.2)
	li   $t0, 64             ; bytes left
	li   $t1, 0              ; local lines
	li   $t2, 0              ; local word starts (assuming space before)
	li   $t3, 1              ; in-space state, seeded "space"
	li   $t8, 0              ; first byte was non-space
	lbu  $t4, text($t9)
	li   $t5, ' '
	bne  $t4, $t5, FIRSTNS1
	j    BYTE
FIRSTNS1:
	li   $t5, '\n'
	beq  $t4, $t5, BYTE
	li   $t8, 1
BYTE:
	lbu  $t4, text($t9)
	li   $t5, '\n'
	bne  $t4, $t5, NOTNL
	addi $t1, $t1, 1         ; lines++
	li   $t3, 1
	j    NEXTB
NOTNL:
	li   $t5, ' '
	bne  $t4, $t5, INWORD
	li   $t3, 1
	j    NEXTB
INWORD:
	beqz $t3, NEXTB          ; already inside a word
	addi $t2, $t2, 1         ; word start
	li   $t3, 0
NEXTB:
	addi $t9, $t9, 1
	addi $t0, $t0, -1
	bnez $t0, BYTE

	; fold local counts into the running totals; boundary fixup: if this
	; chunk started inside a word and the previous chunk ended inside a
	; word, the first "word start" was not a new word
	beqz $t8, NOFIX
	bnez $s7, NOFIX
	addi $t2, $t2, -1
NOFIX:
	add  $s1, $s1, $t1 !f
	add  $s2, $s2, $t2 !f
	addi $s3, $s3, 64 !f
	move $s7, $t3 !f          ; "ended in whitespace" state for the successor
	.msonly bnez $at, CHUNK !s
	.sconly addi $s0, $s0, 64
	.sconly bne  $s0, $s5, CHUNK

DONE:
	move $a0, $s1
`+printInt+`
	li   $a0, ' '
	li   $v0, 11
	syscall
	move $a0, $s2
`+printInt+`
	li   $a0, ' '
	li   $v0, 11
	syscall
	move $a0, $s3
`+printInt+exitSeq+`
	.task main targets=CHUNK create=$s0,$s1,$s2,$s3,$s5,$s7
	.task CHUNK targets=CHUNK,DONE create=$s0,$s1,$s2,$s3,$s7
	.task DONE
`...)
	return text(src)
}
