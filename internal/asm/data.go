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

// directive handles one directive line during pass 1.
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
	case ".byte", ".half", ".word", ".float", ".double", ".ascii", ".asciiz":
		if !a.inData {
			return a.errf(line, "%s only valid in .data", d)
		}
		if err := a.dataValues(line, d, rest); err != nil {
			return err
		}
		if len(a.data) > maxData {
			return a.errf(line, "data segment exceeds %d bytes", maxData)
		}
		return nil
	default:
		return a.errf(line, "unknown directive %q", d)
	}
}

// alignData pads the data segment to a multiple of n, a power of two.
func (a *assembler) alignData(n int) {
	a.data = append(a.data, make([]byte, -len(a.data)&(n-1))...)
}

func (a *assembler) dataValues(line int, d string, toks []token) error {
	ops, err := a.splitOperands(toks)
	if err != nil {
		return a.errf(line, "%v", err)
	}
	if len(ops) == 0 {
		return a.errf(line, "%s wants at least one value", d)
	}
	switch d {
	case ".ascii", ".asciiz":
		for _, op := range ops {
			if len(op) != 1 || op[0].kind != tokString {
				return a.errf(line, "%s wants string literals", d)
			}
			a.data = appendString(a.data, op[0].text)
			if d == ".asciiz" {
				a.data = append(a.data, 0)
			}
		}
		return nil
	case ".byte", ".half":
		size := 1
		if d == ".half" {
			size = 2
			a.alignData(2)
		}
		for _, op := range ops {
			v, err := constExpr(op)
			if err != nil {
				return a.errf(line, "%s: %v (symbols are only allowed in .word)", d, err)
			}
			if size == 1 {
				a.data = append(a.data, byte(v))
			} else {
				a.data = binary.BigEndian.AppendUint16(a.data, uint16(v))
			}
		}
		return nil
	case ".word":
		a.alignData(4)
		for _, op := range ops {
			// A plain constant is final now; anything else (a symbol, a
			// sum, a malformed operand) is pass 2's to evaluate or reject.
			v, err := constExpr(op)
			if err != nil {
				a.patches = append(a.patches, pendingPatch{
					line: line, offset: len(a.data), toks: retain(&a.tokArena, op),
				})
			}
			a.data = binary.BigEndian.AppendUint32(a.data, uint32(v))
		}
		return nil
	case ".float", ".double":
		size := 4
		if d == ".double" {
			size = 8
		}
		a.alignData(size)
		for _, op := range ops {
			f, err := floatConst(op)
			if err != nil {
				return a.errf(line, "%s: %v", d, err)
			}
			if size == 4 {
				a.data = binary.BigEndian.AppendUint32(a.data, math.Float32bits(float32(f)))
			} else {
				a.data = binary.BigEndian.AppendUint64(a.data, math.Float64bits(f))
			}
		}
		return nil
	}
	return a.errf(line, "unknown data directive %q", d)
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
