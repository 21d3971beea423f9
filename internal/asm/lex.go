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
)

// token is one lexeme. text is a substring of the source for every kind,
// so lexing allocates nothing. For a string literal it is the body
// between the quotes, its escapes checked but not applied: appendString
// writes the value where it is wanted.
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
// hand the same buffer back for the next line.
func lexLine(toks []token, line string) ([]token, error) {
	i := 0
	n := len(line)
	for i < n {
		c := line[i]
		switch {
		case c == ' ' || c == '\t' || c == '\r':
			i++
		case c == ';' || c == '#' || (c == '/' && i+1 < n && line[i+1] == '/'):
			return toks, nil
		case c == ',' || c == '(' || c == ')' || c == '=' || c == ':' || c == '+' || c == '-':
			toks = append(toks, token{kind: tokPunct, text: line[i : i+1]})
			i++
		case c == '!':
			j := i + 1
			for j < n && isIdentChar(line[j]) {
				j++
			}
			a := line[i:j]
			switch a {
			case "!f", "!s", "!st", "!snt":
				toks = append(toks, token{kind: tokAnnot, text: a})
			default:
				return nil, fmt.Errorf("unknown annotation %q", a)
			}
			i = j
		case c == '.':
			j := i + 1
			for j < n && isIdentChar(line[j]) {
				j++
			}
			if j == i+1 {
				return nil, fmt.Errorf("stray '.'")
			}
			toks = append(toks, token{kind: tokDirective, text: line[i:j]})
			i = j
		case c == '$':
			j := i + 1
			for j < n && isIdentChar(line[j]) {
				j++
			}
			toks = append(toks, token{kind: tokReg, text: line[i:j]})
			i = j
		case c == '"':
			j, err := lexString(line, i)
			if err != nil {
				return nil, err
			}
			toks = append(toks, token{kind: tokString, text: line[i+1 : j]})
			i = j + 1
		case c == '\'':
			if i+2 < n && line[i+1] == '\\' {
				v, ok := escapeChar(line[i+2])
				if !ok || i+3 >= n || line[i+3] != '\'' {
					return nil, fmt.Errorf("bad character literal")
				}
				toks = append(toks, token{kind: tokNum, num: int64(v), text: line[i : i+4]})
				i += 4
			} else if i+2 < n && line[i+2] == '\'' {
				toks = append(toks, token{kind: tokNum, num: int64(line[i+1]), text: line[i : i+3]})
				i += 3
			} else {
				return nil, fmt.Errorf("bad character literal")
			}
		case c >= '0' && c <= '9':
			// Up to 18 decimal digits and nothing after them: the value is
			// known by the time the run has been scanned.
			j := i
			var v int64
			for j < n && j-i < 18 && line[j]-'0' <= 9 {
				v = v*10 + int64(line[j]-'0')
				j++
			}
			if j == n || !(isIdentChar(line[j]) || line[j] == '.') {
				toks = append(toks, token{kind: tokNum, num: v, text: line[i:j]})
				i = j
				continue
			}
			for j < n && (isIdentChar(line[j]) || line[j] == '.') {
				j++
			}
			tk, err := lexNumber(line[i:j])
			if err != nil {
				return nil, err
			}
			toks = append(toks, tk)
			i = j
		case isIdentStart(c):
			j := i
			for j < n && (isIdentChar(line[j]) || line[j] == '.') {
				j++
			}
			toks = append(toks, token{kind: tokIdent, text: line[i:j]})
			i = j
		default:
			return nil, fmt.Errorf("unexpected character %q", c)
		}
	}
	return toks, nil
}

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
// line[start] and returns the index of its closing quote. A comment
// character inside the quotes is part of the string. Both searches are
// IndexByte scans, so a long literal with few escapes lexes in a few
// calls rather than one step per byte. The quote is searched for again
// only once an escape has consumed the one found, so each byte of the
// line is scanned a bounded number of times however many escapes it has.
func lexString(line string, start int) (int, error) {
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
			return end, nil
		}
		i += k + 1 // the escaped character; a quote there does not close
		if i == len(line) {
			return 0, fmt.Errorf("unterminated escape")
		}
		if _, ok := escapeChar(line[i]); !ok {
			return 0, fmt.Errorf("bad escape \\%c", line[i])
		}
		i++
	}
}

// appendString appends the value of a string literal's body, as lexString
// checked it, to dst.
func appendString(dst []byte, body string) []byte {
	for {
		k := strings.IndexByte(body, '\\')
		if k < 0 {
			return append(dst, body...)
		}
		c, _ := escapeChar(body[k+1])
		dst = append(append(dst, body[:k]...), c)
		body = body[k+2:]
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
