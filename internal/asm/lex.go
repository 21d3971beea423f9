// Package asm implements the multiscalar assembler: it turns annotated
// assembly source into an isa.Program. It is the hand-written stand-in for
// the binary-emission half of the paper's modified GCC 2.5.8: labels,
// data directives, task descriptor directives (.task), forward/stop
// annotation suffixes (!f, !s, !st, !snt), and single-source dual builds
// via .msonly/.sconly line prefixes so one source yields both the scalar
// and the multiscalar binary (Table 2's instruction-count deltas fall out
// of exactly this mechanism).
package asm

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

type tokKind uint8

const (
	tokIdent tokKind = iota
	tokReg
	tokNum   // integer literal: decimal, hex or character
	tokFloat // float literal; the value is the bit pattern in num
	tokString
	tokPunct // one of , ( ) = : + -
	tokAnnot // !f !s !st !snt
	tokDirective
	tokEnd // no token: the end of the line or a comment
)

// token is one lexeme. text is a substring of the source for every kind,
// so lexing allocates nothing. For a string literal it is the body
// between the quotes, its escapes checked but not applied: a data
// directive reads its strings without tokens (lexString with a dst).
type token struct {
	text string
	num  int64
	kind tokKind
}

// is reports whether the token is the punctuation character c.
func (t token) is(c byte) bool { return t.kind == tokPunct && t.text[0] == c }

// fnum is the value of a numeric token as a float.
func (t token) fnum() float64 {
	if t.kind == tokFloat {
		return math.Float64frombits(uint64(t.num))
	}
	return float64(t.num)
}

// lexLine appends the tokens of one source line (no newline in it) to
// toks, stopping at a ;, # or // comment. The caller owns toks and may
// hand the same buffer back for the next line. With atData set, a data
// directive that heads the statement (after its labels and a
// .msonly/.sconly prefix) also ends the scan: its operand list is
// returned unread, as rest, for dataValues to read in one pass.
func lexLine(toks []token, line string, atData bool) (_ []token, rest string, _ error) {
	for i := 0; ; {
		tk, j, err := lexToken(line, i)
		if err != nil {
			return nil, "", err
		}
		if tk.kind == tokEnd {
			return toks, "", nil
		}
		toks = append(toks, tk)
		if atData && tk.kind == tokDirective && headsStatement(toks) {
			if _, data := dataKindOf(tk.text); data {
				return toks, line[j:], nil
			}
		}
		i = j
	}
}

// headsStatement reports whether the last of toks is where statement
// looks for a directive: after any IDENT ':' labels and at most one
// .msonly/.sconly prefix.
func headsStatement(toks []token) bool {
	toks = toks[:len(toks)-1]
	for len(toks) >= 2 && toks[0].kind == tokIdent && toks[1].is(':') {
		toks = toks[2:]
	}
	return len(toks) == 0 || len(toks) == 1 && toks[0].kind == tokDirective &&
		(toks[0].text == ".msonly" || toks[0].text == ".sconly")
}

// lexToken lexes the token at line[i:], after any blanks, and returns it
// with the index after it. At the end of the line, or at a ;, # or //
// comment, it returns a tokEnd.
func lexToken(line string, i int) (token, int, error) {
	n := len(line)
	for i < n && (line[i] == ' ' || line[i] == '\t' || line[i] == '\r') {
		i++
	}
	if i == n {
		return token{kind: tokEnd}, i, nil
	}
	switch c := line[i]; {
	case c == ';' || c == '#' || (c == '/' && i+1 < n && line[i+1] == '/'):
		return token{kind: tokEnd}, n, nil
	case c == ',' || c == '(' || c == ')' || c == '=' || c == ':' || c == '+' || c == '-':
		return token{kind: tokPunct, text: line[i : i+1]}, i + 1, nil
	case c == '!':
		j := i + 1
		for j < n && isIdentChar(line[j]) {
			j++
		}
		switch a := line[i:j]; a {
		case "!f", "!s", "!st", "!snt":
			return token{kind: tokAnnot, text: a}, j, nil
		default:
			return token{}, 0, fmt.Errorf("unknown annotation %q", a)
		}
	case c == '.':
		j := i + 1
		for j < n && isIdentChar(line[j]) {
			j++
		}
		if j == i+1 {
			return token{}, 0, fmt.Errorf("stray '.'")
		}
		return token{kind: tokDirective, text: line[i:j]}, j, nil
	case c == '$':
		j := i + 1
		for j < n && isIdentChar(line[j]) {
			j++
		}
		return token{kind: tokReg, text: line[i:j]}, j, nil
	case c == '"':
		j, err := lexString(line, i, nil)
		if err != nil {
			return token{}, 0, err
		}
		return token{kind: tokString, text: line[i+1 : j]}, j + 1, nil
	case c == '\'':
		if i+2 < n && line[i+1] == '\\' {
			v, ok := escapeChar(line[i+2])
			if !ok || i+3 >= n || line[i+3] != '\'' {
				return token{}, 0, fmt.Errorf("bad character literal")
			}
			return token{kind: tokNum, num: int64(v), text: line[i : i+4]}, i + 4, nil
		} else if i+2 < n && line[i+2] == '\'' {
			return token{kind: tokNum, num: int64(line[i+1]), text: line[i : i+3]}, i + 3, nil
		}
		return token{}, 0, fmt.Errorf("bad character literal")
	case c >= '0' && c <= '9':
		if v, j, ok := decimal(line, i); ok {
			return token{kind: tokNum, num: v, text: line[i:j]}, j, nil
		}
		j := i
		for j < n && (isIdentChar(line[j]) || line[j] == '.') {
			j++
		}
		tk, err := lexNumber(line[i:j])
		return tk, j, err
	case isIdentStart(c):
		j := i
		for j < n && (isIdentChar(line[j]) || line[j] == '.') {
			j++
		}
		return token{kind: tokIdent, text: line[i:j]}, j, nil
	default:
		return token{}, 0, fmt.Errorf("unexpected character %q", c)
	}
}

// decimal reads the plain decimal literal at line[i]: up to 18 digits
// and nothing after them that would make them part of a longer literal
// or a name. Its value is known by the time the run has been scanned;
// anything else starting with a digit is lexNumber's.
func decimal(line string, i int) (v int64, j int, ok bool) {
	for j = i; j < len(line) && j-i < 18 && line[j]-'0' <= 9; j++ {
		v = v*10 + int64(line[j]-'0')
	}
	return v, j, j == len(line) || !literalChar[line[j]]
}

// literalChar marks the bytes a numeric literal's run is made of:
// identifier characters and '.'.
var literalChar = func() (t [256]bool) {
	for c := range t {
		t[c] = isIdentChar(byte(c)) || c == '.'
	}
	return t
}()

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentChar(c byte) bool {
	return isIdentStart(c) || (c >= '0' && c <= '9')
}

// lexNumber converts a maximal run of identifier characters and dots that
// starts with a digit. The whole run must be one literal: decimal digits,
// 0x/0X and hex digits, or digits with a fraction and/or an exponent
// (unsigned: a '-' ends the run). Integers must fit an int64.
func lexNumber(text string) (token, error) {
	tk := token{kind: tokNum, text: text}
	hex := strings.HasPrefix(text, "0x") || strings.HasPrefix(text, "0X")
	var err error
	switch {
	case strings.IndexByte(text, '.') >= 0 || (!hex && strings.ContainsAny(text, "eE")):
		for i := 0; i < len(text); i++ {
			if c := text[i]; (c < '0' || c > '9') && c != '.' && c != 'e' && c != 'E' {
				return tk, fmt.Errorf("bad float %q", text)
			}
		}
		var f float64
		if f, err = strconv.ParseFloat(text, 64); err != nil {
			return tk, fmt.Errorf("bad float %q", text)
		}
		tk.kind, tk.num = tokFloat, int64(math.Float64bits(f))
	case hex:
		tk.num, err = strconv.ParseInt(text[2:], 16, 64)
	default:
		tk.num, err = strconv.ParseInt(text, 10, 64)
	}
	if err != nil {
		return tk, fmt.Errorf("bad number %q", text)
	}
	return tk, nil
}

// indexByte is lexString's search: strings.IndexByte, which a test
// replaces to count the bytes the searches cover.
var indexByte = strings.IndexByte

// lexString checks the string literal whose opening quote is at
// line[start] and returns the index of its closing quote. When dst is not
// nil it also appends the literal's value to *dst as it goes, so a data
// directive unescapes its string in the same pass. A comment character
// inside the quotes is part of the string. Both searches are IndexByte
// scans, so a long literal with few escapes lexes in a few calls rather
// than one step per byte. The quote is searched for again only once an
// escape has consumed the one found, so each byte of the line is scanned
// a bounded number of times however many escapes it has.
func lexString(line string, start int, dst *[]byte) (int, error) {
	i, end := start+1, start
	for {
		if i > end {
			end = len(line)
			if q := indexByte(line[i:], '"'); q >= 0 {
				end = i + q
			}
		}
		k := indexByte(line[i:end], '\\')
		if k < 0 {
			if end == len(line) {
				return 0, fmt.Errorf("unterminated string")
			}
			if dst != nil {
				*dst = append(*dst, line[i:end]...)
			}
			return end, nil
		}
		if dst != nil {
			*dst = append(*dst, line[i:i+k]...)
		}
		i += k + 1 // the escaped character; a quote there does not close
		if i == len(line) {
			return 0, fmt.Errorf("unterminated escape")
		}
		c, ok := escapeChar(line[i])
		if !ok {
			return 0, fmt.Errorf("bad escape \\%c", line[i])
		}
		if dst != nil {
			*dst = append(*dst, c)
		}
		i++
	}
}

func escapeChar(c byte) (byte, bool) {
	switch c {
	case 'n':
		return '\n', true
	case 't':
		return '\t', true
	case 'r':
		return '\r', true
	case '0':
		return 0, true
	case '\\':
		return '\\', true
	case '"':
		return '"', true
	case '\'':
		return '\'', true
	default:
		return 0, false
	}
}
