package asm

import (
	"math"
	"strings"
	"testing"
)

// TestNumericLiterals: the literal grammar of docs/assembly.md, one
// operand per case. An operand is lexed and evaluated the way a data
// directive does it: integers through constExpr, floats through
// floatConst. A rejected form names its error.
func TestNumericLiterals(t *testing.T) {
	cases := []struct {
		in    string
		want  int64
		wantF float64 // compared instead of want when float is set
		float bool
		err   string
	}{
		// Decimal, with the int64 boundaries.
		{in: "0", want: 0},
		{in: "7", want: 7},
		{in: "017", want: 17}, // no octal
		{in: "123456789012345678", want: 123456789012345678},
		{in: "1234567890123456789", want: 1234567890123456789},
		{in: "9223372036854775807", want: math.MaxInt64},
		{in: "-9223372036854775807", want: -math.MaxInt64},
		{in: "9223372036854775808", err: `bad number "9223372036854775808"`},
		{in: "-9223372036854775808", err: `bad number "9223372036854775808"`},
		{in: "99999999999999999999", err: `bad number "99999999999999999999"`},
		{in: "12abc", err: `bad number "12abc"`},
		{in: "1_000", err: `bad number "1_000"`},
		{in: "123456789012345678x", err: `bad number "123456789012345678x"`},
		// Hex.
		{in: "0x1f", want: 31},
		{in: "0X1F", want: 31},
		{in: "0xe", want: 14},
		{in: "0x7fffffffffffffff", want: math.MaxInt64},
		{in: "0xffffffffffffffff", err: `bad number "0xffffffffffffffff"`},
		{in: "0x", err: `bad number "0x"`},
		{in: "0xzz", err: `bad number "0xzz"`},
		{in: "0x12zz", err: `bad number "0x12zz"`},
		{in: "0x_ff", err: `bad number "0x_ff"`},
		// Signs are operand syntax, not part of the literal.
		{in: "-5", want: -5},
		{in: "+5", want: 5},
		{in: "- 0x10", want: -16},
		{in: "--5", err: "expected integer constant"},
		{in: "5 6", err: "expected single constant"},
		// Character literals.
		{in: "'a'", want: 'a'},
		{in: "' '", want: ' '},
		{in: "';'", want: ';'},
		{in: "'#'", want: '#'},
		{in: `'"'`, want: '"'},
		{in: `'\n'`, want: '\n'},
		{in: `'\t'`, want: '\t'},
		{in: `'\r'`, want: '\r'},
		{in: `'\0'`, want: 0},
		{in: `'\\'`, want: '\\'},
		{in: `'\''`, want: '\''},
		{in: `'\"'`, want: '"'},
		{in: `-'a'`, want: -'a'},
		{in: "'ab'", err: "bad character literal"},
		{in: `'\q'`, err: "bad character literal"},
		{in: "''", err: "bad character literal"},
		{in: "'a", err: "bad character literal"},
		// Floats: digits with a fraction and/or an unsigned exponent.
		{in: "1.5", wantF: 1.5, float: true},
		{in: "0.25", wantF: 0.25, float: true},
		{in: "1.", wantF: 1, float: true},
		{in: "1e3", wantF: 1000, float: true},
		{in: "2.5E2", wantF: 250, float: true},
		{in: "-3.25", wantF: -3.25, float: true},
		{in: "7", wantF: 7, float: true},
		{in: "-0x10", wantF: -16, float: true},
		{in: "1.5.2", float: true, err: `bad float "1.5.2"`},
		{in: "1e", float: true, err: `bad float "1e"`},
		{in: "1.5e", float: true, err: `bad float "1.5e"`},
		{in: "1e5e", float: true, err: `bad float "1e5e"`},
		{in: "1e999", float: true, err: `bad float "1e999"`},
		{in: "1_0.5", float: true, err: `bad float "1_0.5"`},
		{in: "1.5abc", float: true, err: `bad float "1.5abc"`},
		{in: "0x1.8", float: true, err: `bad float "0x1.8"`},
		{in: "1.5", err: "expected integer constant"},
		{in: "x", float: true, err: "expected float constant"},
	}
	for _, tc := range cases {
		toks, err := lexLine(nil, tc.in)
		var got int64
		var gotF float64
		if err == nil {
			if tc.float {
				gotF, err = floatConst(toks)
			} else {
				got, err = constExpr(toks)
			}
		}
		switch {
		case tc.err != "":
			if err == nil || err.Error() != tc.err {
				t.Errorf("%s: error %v, want %q", tc.in, err, tc.err)
			}
		case err != nil:
			t.Errorf("%s: %v", tc.in, err)
		case got != tc.want || gotF != tc.wantF:
			t.Errorf("%s = %d / %g, want %d / %g", tc.in, got, gotF, tc.want, tc.wantF)
		}
	}
}

// TestMalformedLiteralsRejected: a literal with trailing garbage, and a
// float where a directive wants a count, fail with their line, in data
// and in instruction operands.
func TestMalformedLiteralsRejected(t *testing.T) {
	for src, want := range map[string]string{
		".data\nx:\t.byte 12abc\n":               `asm: line 2: bad number "12abc"`,
		".data\nx:\t.double 1.5.2\n":             `asm: line 2: bad float "1.5.2"`,
		"main:\n\tli $t0, 1_000\n":               `asm: line 2: bad number "1_000"`,
		".data\n\t.space 1.5\n":                  "asm: line 2: .space wants one non-negative constant",
		".data\n\t.byte 1\n\t.align 1.5\n":       "asm: line 3: .align wants one constant",
		".data\nx:\t.word 0x12zz ; tail\n":       `asm: line 2: bad number "0x12zz"`,
		"main:\n\tli $t0, ';'\n\tli $t1, 'ab'\n": "asm: line 3: bad character literal",
	} {
		if _, err := Assemble(src, ModeScalar); err == nil || err.Error() != want {
			t.Errorf("%q: error %v, want %q", src, err, want)
		}
	}
}

// TestDataSegmentLimits: .align and .space are bounded by the data
// segment, which ends where the sbrk arena begins. None of these
// allocates what it names.
func TestDataSegmentLimits(t *testing.T) {
	if maxData%(1<<maxAlignShift) != 0 {
		t.Fatalf("an .align %d could overflow a %d-byte segment", maxAlignShift, maxData)
	}
	for src, want := range map[string]string{
		".data\n\t.align 64\n":            "asm: line 2: .align 64 out of range (at most 28)",
		".data\n\t.byte 1\n\t.align 40\n": "asm: line 3: .align 40 out of range (at most 28)",
		".data\n\t.align 29\n":            "asm: line 2: .align 29 out of range (at most 28)",
		".data\n\t.space 1099511627776\n": "asm: line 2: data segment exceeds 268435456 bytes",
		".data\n\t.space 4294967296\n":    "asm: line 2: data segment exceeds 268435456 bytes",
		".data\n\t.space 268435457\n":     "asm: line 2: data segment exceeds 268435456 bytes",
		// 16 bytes already there: the largest .space alone no longer fits.
		".data\n\t.space 16\n\t.space 268435441\n": "asm: line 3: data segment exceeds 268435456 bytes",
	} {
		if _, err := Assemble(src, ModeScalar); err == nil || err.Error() != want {
			t.Errorf("%q: error %v, want %q", src, err, want)
		}
	}
	p := mustAssemble(t, ".data\n\t.byte 1\n\t.align 12\nx:\t.byte 2\n\t.space 100\n.text\nmain:\n\tsyscall\n", ModeScalar)
	if addr, _ := p.Symbol("x"); addr&0xfff != 0 || len(p.Data) != 4096+1+100 {
		t.Errorf("x = 0x%x, %d data bytes", addr, len(p.Data))
	}
}

// TestLineEndings: CRLF sources and a last line without a newline
// assemble to the same program as the plain form.
func TestLineEndings(t *testing.T) {
	src := ".data\nx:\t.word 1, x\n.text\nmain:\n\tlw $t0, x($gp) ; c\n\tsyscall\n"
	want := Listing(mustAssemble(t, src, ModeScalar))
	for name, alt := range map[string]string{
		"crlf":       strings.ReplaceAll(src, "\n", "\r\n"),
		"no newline": strings.TrimSuffix(src, "\n"),
	} {
		if got := Listing(mustAssemble(t, alt, ModeScalar)); got != want {
			t.Errorf("%s: listing differs\n%s\nwant\n%s", name, got, want)
		}
	}
}
