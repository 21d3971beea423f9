package asm

import (
	"strings"
	"testing"
)

// FuzzAssemble: the assembler must reject arbitrary input with an error,
// never a panic. Run with `go test -fuzz FuzzAssemble ./internal/asm`.
func FuzzAssemble(f *testing.F) {
	f.Add("main:\n\tli $t0, 1\n\tsyscall\n")
	f.Add("main:\n\tadd $t0, $t1, $t2 !f !s\n.task main targets=main create=$t0\n")
	f.Add(".data\nx:\t.word 1, x+4\n.text\nmain:\n\tlw $t0, x($gp)\n")
	f.Add("main:\n\tblt $t0, $t1, main\n\trelease $t0, $f3\n")
	f.Add(".msonly move $t9, $s0\n.sconly nop\nmain:\n\tj main !st\n")
	f.Add("main:\n\tli $t0, '\\n'\n\t.asciiz \"a\\\"b\"\n")
	// The directives with limits, literals with trailing garbage, one
	// long data line, CRLF line endings.
	f.Add(".data\nx:\t.byte 1\n\t.align 64\n")
	f.Add(".data\n\t.align 3\ny:\t.space 4294967296\n")
	f.Add(".data\nx:\t.byte 12abc, 1_000, 0x12zz\n\t.double 1.5.2, 1e\n")
	f.Add(".data\nx:\t.byte " + strings.TrimSuffix(strings.Repeat("255, ", 820), ", ") + "\n")
	f.Add(".data\r\nx:\t.half 1, -2\r\n.text\r\nmain:\r\n\tlh $t0, x($gp) ; c\r\n")
	f.Fuzz(func(t *testing.T, src string) {
		for _, mode := range []Mode{ModeScalar, ModeMultiscalar} {
			p, err := Assemble(src, mode)
			if err == nil && p != nil {
				// Anything that assembles must also produce a listing and
				// survive a re-validate.
				_ = Listing(p)
				if verr := p.Validate(); verr != nil {
					t.Fatalf("assembled program fails validation: %v", verr)
				}
			}
		}
	})
}
