package asm

import (
	"encoding/binary"
	"errors"
	"math"
	"strings"

	"multiscalar/internal/isa"
)

// maxData is the size of the static data segment: it ends where the sbrk
// arena begins.
const maxData = int(isa.HeapBase - isa.DataBase)

// maxAlignShift bounds .align at the segment's own alignment, so padding
// a segment that fits cannot make it overflow.
const maxAlignShift = 28

// directive handles one directive line other than a data directive
// during pass 1.
func (a *assembler) directive(line int, toks []token) error {
	d := toks[0].text
	rest := toks[1:]
	switch d {
	case ".text":
		a.inData = false
		return nil
	case ".data":
		a.inData = true
		return nil
	case ".global", ".globl":
		if len(rest) != 1 || rest[0].kind != tokIdent {
			return a.errf(line, "%s wants one symbol", d)
		}
		a.entry = rest[0].text
		return nil
	case ".task":
		return a.taskDirective(line, rest)
	case ".align":
		if len(rest) != 1 || rest[0].kind != tokNum {
			return a.errf(line, ".align wants one constant")
		}
		if !a.inData {
			return a.errf(line, ".align only valid in .data")
		}
		if rest[0].num > maxAlignShift {
			return a.errf(line, ".align %d out of range (at most %d)", rest[0].num, maxAlignShift)
		}
		a.alignData(1 << uint(rest[0].num))
		return nil
	case ".space":
		if len(rest) != 1 || rest[0].kind != tokNum || rest[0].num < 0 {
			return a.errf(line, ".space wants one non-negative constant")
		}
		if !a.inData {
			return a.errf(line, ".space only valid in .data")
		}
		if rest[0].num > int64(maxData-len(a.data)) {
			return a.errf(line, "data segment exceeds %d bytes", maxData)
		}
		a.data = append(a.data, make([]byte, rest[0].num)...)
		return nil
	default:
		return a.errf(line, "unknown directive %q", d)
	}
}

// alignData pads the data segment to a multiple of n, a power of two.
// (Appending a make grows the segment in place, with no temporary.)
func (a *assembler) alignData(n int) {
	a.data = append(a.data, make([]byte, -len(a.data)&(n-1))...)
}

// dataValues handles a line headed by the data directive d, of the
// kind, and writes its operands, the text after it, into the data
// segment. A plain literal — a signed decimal integer, or a string for
// .ascii and .asciiz — that is the whole operand is read where it
// stands, without a token. From the first operand that is not one, the
// rest of the line is lexed and split whole and goes through constExpr,
// floatConst or a pass-2 patch (tokenValues), so the line's errors keep
// the text and the rank they had when every line was lexed whole.
func (a *assembler) dataValues(line int, d string, kind dataKind, text string) error {
	if !a.inData {
		return a.unread(line, text, a.errf(line, "%s only valid in .data", d))
	}
	a.alignData(dataAlign[kind])
	data := a.data // the segment stays in registers while the line is read
	i, some := 0, false
	for {
		j, ok := 0, false
		if i = blanks(text, i); i < len(text) {
			if kind < dataASCII {
				data, j, ok = integers(data, kind, text, i)
			} else {
				data, j, ok = stringLiteral(data, kind, text, i)
			}
		}
		if !ok {
			break
		}
		if some = true; j == len(text) || text[j] != ',' {
			a.data = data // the line ends
			return a.checkSize(line)
		}
		i = j + 1
	}
	a.data = data
	if err := a.tokenValues(line, d, kind, text[i:], some); err != nil {
		return err
	}
	return a.checkSize(line)
}

// tokenValues writes the operands in text, the rest of a data line from
// its first operand that is not a plain literal, through tokens. some
// reports whether the line wrote values before text. (Nothing before
// text can have failed to lex or to split, so text's first error is the
// line's.)
func (a *assembler) tokenValues(line int, d string, kind dataKind, text string, some bool) error {
	toks, _, err := lexLine(a.opToks[:0], text, false)
	if err != nil {
		return a.errf(line, "%v", err)
	}
	a.opToks = toks
	ops, err := a.splitOperands(toks)
	if err != nil {
		return a.errf(line, "%v", err)
	}
	if len(ops) == 0 {
		if some {
			return a.errf(line, "trailing comma")
		}
		return a.errf(line, "%s wants at least one value", d)
	}
	for _, op := range ops {
		switch kind {
		case dataASCII, dataASCIIZ:
			// A string literal that is the whole operand was read in
			// place, so the first operand here is not one.
			return a.errf(line, "%s wants string literals", d)
		case dataByte, dataHalf:
			v, err := constExpr(op)
			if err != nil {
				return a.errf(line, "%s: %v (symbols are only allowed in .word)", d, err)
			}
			if kind == dataByte {
				a.data = append(a.data, byte(v))
			} else {
				a.data = binary.BigEndian.AppendUint16(a.data, uint16(v))
			}
		case dataWord:
			// A constant is final now; anything else (a symbol, a sum, a
			// malformed operand) is pass 2's to evaluate or reject.
			v, err := constExpr(op)
			if err != nil {
				a.patches = append(a.patches, pendingPatch{
					line: line, offset: len(a.data), toks: retain(&a.tokArena, op),
				})
			}
			a.data = binary.BigEndian.AppendUint32(a.data, uint32(v))
		default: // .float, .double
			f, err := floatConst(op)
			if err != nil {
				return a.errf(line, "%s: %v", d, err)
			}
			a.data = appendFloat(a.data, kind, f)
		}
	}
	return nil
}

// checkSize reports a data segment grown past its end.
func (a *assembler) checkSize(line int) error {
	if len(a.data) > maxData {
		return a.errf(line, "data segment exceeds %d bytes", maxData)
	}
	return nil
}

// dataKind is what a data directive's values are.
type dataKind uint8

const (
	dataByte dataKind = iota
	dataHalf
	dataWord
	dataFloat
	dataDouble
	dataASCII
	dataASCIIZ
)

// dataAlign is the alignment of each kind's values.
var dataAlign = [...]int{1, 2, 4, 4, 8, 1, 1}

// dataKindOf returns the kind of the data directive d, or false if d is
// not one.
func dataKindOf(d string) (dataKind, bool) {
	switch d {
	case ".byte":
		return dataByte, true
	case ".half":
		return dataHalf, true
	case ".word":
		return dataWord, true
	case ".float":
		return dataFloat, true
	case ".double":
		return dataDouble, true
	case ".ascii":
		return dataASCII, true
	case ".asciiz":
		return dataASCIIZ, true
	}
	return 0, false
}

// dataHead returns the kind of the data directive that toks starts with,
// or false if they start with something else.
func dataHead(toks []token) (dataKind, bool) {
	if len(toks) == 0 || toks[0].kind != tokDirective {
		return 0, false
	}
	return dataKindOf(toks[0].text)
}

// stringLiteral writes the operand at text[i] to data if it is a plain
// string literal and the whole operand, and returns the index of the
// comma or line end after it.
func stringLiteral(data []byte, kind dataKind, text string, i int) ([]byte, int, bool) {
	if text[i] != '"' {
		return data, i, false
	}
	n := len(data)
	q, err := lexString(text, i, &data)
	if err != nil {
		return data[:n], i, false
	}
	j := blanks(text, q+1)
	if !end(text, j) && text[j] != ',' {
		return data[:n], i, false
	}
	if kind == dataASCIIZ {
		data = append(data, 0)
	}
	return data, j, true
}

// integers writes the run of operands from text[i] on that are each a
// plain signed decimal integer and the whole operand, and returns the
// index of the comma or line end after the last of them; ok is false if
// the operand at text[i] is not one. The common spelling, a comma right
// after each value, is checked first.
func integers(data []byte, kind dataKind, text string, i int) (_ []byte, j int, ok bool) {
	for j = i; ; {
		k := i
		if text[k] == '-' || text[k] == '+' {
			k++
		}
		if k == len(text) || text[k]-'0' > 9 {
			return data, j, ok // not an integer, or no operand at all
		}
		u, k, plain := decimal(text, k)
		if !plain {
			return data, j, ok
		}
		if k < len(text) && text[k] != ',' {
			if k = blanks(text, k); !end(text, k) && text[k] != ',' {
				return data, j, ok
			}
		}
		v := u
		if text[i] == '-' {
			v = -u
		}
		switch kind {
		case dataByte:
			data = append(data, byte(v))
		case dataHalf:
			data = binary.BigEndian.AppendUint16(data, uint16(v))
		case dataWord:
			data = binary.BigEndian.AppendUint32(data, uint32(v))
		default: // a float's sign applies to the converted value
			f := float64(u)
			if text[i] == '-' {
				f = -f
			}
			data = appendFloat(data, kind, f)
		}
		j, ok = k, true
		if k == len(text) || text[k] != ',' {
			return data, j, ok // the line ends
		}
		i = blanks(text, k+1)
		if i == len(text) {
			return data, j, ok // a trailing comma: dataValues reports it
		}
	}
}

// appendFloat appends f as a .float or a .double value.
func appendFloat(data []byte, kind dataKind, f float64) []byte {
	if kind == dataFloat {
		return binary.BigEndian.AppendUint32(data, math.Float32bits(float32(f)))
	}
	return binary.BigEndian.AppendUint64(data, math.Float64bits(f))
}

// blanks returns the index of the first byte at or after i that is not a
// blank.
func blanks(text string, i int) int {
	for i < len(text) && (text[i] == ' ' || text[i] == '\t' || text[i] == '\r') {
		i++
	}
	return i
}

// end reports whether the line ends at text[i]: no more text, or a
// comment.
func end(text string, i int) bool {
	return i == len(text) || text[i] == ';' || text[i] == '#' ||
		(text[i] == '/' && i+1 < len(text) && text[i+1] == '/')
}

var (
	errNotInteger = errors.New("expected integer constant")
	errNotSingle  = errors.New("expected single constant")
	errNotFloat   = errors.New("expected float constant")
)

// signed strips an optional leading sign from an operand.
func signed(toks []token) (rest []token, neg bool) {
	if len(toks) > 0 && (toks[0].is('-') || toks[0].is('+')) {
		return toks[1:], toks[0].is('-')
	}
	return toks, false
}

// constExpr evaluates an expression that may not reference symbols.
func constExpr(toks []token) (int64, error) {
	toks, neg := signed(toks)
	if len(toks) == 0 || toks[0].kind != tokNum {
		return 0, errNotInteger
	}
	if len(toks) != 1 {
		return 0, errNotSingle
	}
	if neg {
		return -toks[0].num, nil
	}
	return toks[0].num, nil
}

func floatConst(toks []token) (float64, error) {
	toks, neg := signed(toks)
	if len(toks) != 1 || (toks[0].kind != tokNum && toks[0].kind != tokFloat) {
		return 0, errNotFloat
	}
	if neg {
		return -toks[0].fnum(), nil
	}
	return toks[0].fnum(), nil
}

// taskDirective records a .task line for pass-2 resolution. Syntax:
//
//	.task NAME [entry=LABEL] targets=L1,L2[,ret] [create=$r,...] [pushra=LABEL]
func (a *assembler) taskDirective(line int, toks []token) error {
	if a.mode == ModeScalar {
		return nil // tasks stripped from scalar builds
	}
	if len(toks) == 0 || toks[0].kind != tokIdent {
		return a.errf(line, ".task wants a name")
	}
	pt := pendingTask{line: line, name: toks[0].text, args: map[string][]token{}}
	rest := retain(&a.tokArena, toks[1:])
	for len(rest) > 0 {
		if rest[0].kind != tokIdent || len(rest) < 2 || !rest[1].is('=') {
			return a.errf(line, ".task: expected key=value, got %q", rest[0].text)
		}
		key := rest[0].text
		rest = rest[2:]
		// Value runs until the next IDENT '=' pair.
		end := len(rest)
		for i := 0; i+1 < len(rest); i++ {
			if rest[i].kind == tokIdent && rest[i+1].is('=') {
				// Only a key boundary if preceded by a comma-free gap;
				// values are comma-separated lists, so a bare IDENT '='
				// can only start a new key.
				end = i
				break
			}
		}
		if end == 0 {
			return a.errf(line, ".task: empty value for %q", key)
		}
		if _, dup := pt.args[key]; dup {
			return a.errf(line, ".task: duplicate key %q", key)
		}
		pt.args[key] = rest[:end]
		rest = rest[end:]
	}
	a.tasks = append(a.tasks, pt)
	return nil
}

// resolveTask builds the isa.TaskDescriptor for a recorded .task line.
func (a *assembler) resolveTask(pt pendingTask) error {
	entry := pt.name
	if v, ok := pt.args["entry"]; ok {
		if len(v) != 1 || v[0].kind != tokIdent {
			return a.errf(pt.line, ".task %s: entry wants a label", pt.name)
		}
		entry = v[0].text
	}
	entryAddr, ok := a.symbols[entry]
	if !ok {
		return a.errf(pt.line, ".task %s: entry label %q undefined", pt.name, entry)
	}
	td := &isa.TaskDescriptor{Name: strings.Clone(pt.name), Entry: entryAddr}

	if tgtToks, ok := pt.args["targets"]; ok {
		tgtOps, err := a.splitOperands(tgtToks)
		if err != nil {
			return a.errf(pt.line, ".task %s: %v", pt.name, err)
		}
		for _, op := range tgtOps {
			if len(op) != 1 || op[0].kind != tokIdent {
				return a.errf(pt.line, ".task %s: bad target", pt.name)
			}
			if op[0].text == "ret" {
				td.Targets = append(td.Targets, isa.TargetReturn)
				continue
			}
			addr, ok := a.symbols[op[0].text]
			if !ok {
				return a.errf(pt.line, ".task %s: target %q undefined", pt.name, op[0].text)
			}
			td.Targets = append(td.Targets, addr)
		}
	}

	if v, ok := pt.args["create"]; ok {
		regOps, err := a.splitOperands(v)
		if err != nil {
			return a.errf(pt.line, ".task %s: %v", pt.name, err)
		}
		for _, op := range regOps {
			if len(op) != 1 || op[0].kind != tokReg {
				return a.errf(pt.line, ".task %s: create wants registers", pt.name)
			}
			r, err := isa.ParseReg(op[0].text)
			if err != nil {
				return a.errf(pt.line, ".task %s: %v", pt.name, err)
			}
			td.Create = td.Create.Set(r)
		}
	}

	if v, ok := pt.args["pushra"]; ok {
		if len(v) != 1 || v[0].kind != tokIdent {
			return a.errf(pt.line, ".task %s: pushra wants a label", pt.name)
		}
		addr, ok := a.symbols[v[0].text]
		if !ok {
			return a.errf(pt.line, ".task %s: pushra label %q undefined", pt.name, v[0].text)
		}
		td.PushRA = addr
		// The callee whose prediction triggers the push: explicit call=
		// key, defaulting to the task's first target.
		if cv, ok := pt.args["call"]; ok {
			if len(cv) != 1 || cv[0].kind != tokIdent {
				return a.errf(pt.line, ".task %s: call wants a label", pt.name)
			}
			caddr, ok := a.symbols[cv[0].text]
			if !ok {
				return a.errf(pt.line, ".task %s: call label %q undefined", pt.name, cv[0].text)
			}
			td.CallTarget = caddr
		} else if len(td.Targets) > 0 {
			td.CallTarget = td.Targets[0]
		} else {
			return a.errf(pt.line, ".task %s: pushra without targets or call=", pt.name)
		}
	}

	if prev, dup := a.prog.Tasks[entryAddr]; dup {
		return a.errf(pt.line, ".task %s: entry 0x%x already used by task %s", pt.name, entryAddr, prev.Name)
	}
	a.prog.Tasks[entryAddr] = td
	return nil
}
