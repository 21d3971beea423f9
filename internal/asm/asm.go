package asm

import (
	"encoding/binary"
	"fmt"
	"strings"

	"multiscalar/internal/isa"
	"multiscalar/internal/mslint"
)

// Mode selects which binary a single annotated source produces.
type Mode int

const (
	// ModeScalar strips all multiscalar information: .task directives and
	// annotation bits are dropped, .msonly lines are skipped, .sconly
	// lines are kept. Release instructions are rejected outside .msonly
	// lines.
	ModeScalar Mode = iota
	// ModeMultiscalar keeps task descriptors and tag bits, skips .sconly
	// lines, and keeps .msonly lines.
	ModeMultiscalar
)

func (m Mode) String() string {
	if m == ModeScalar {
		return "scalar"
	}
	return "multiscalar"
}

// Options controls a single assembly beyond the build mode.
type Options struct {
	Mode Mode
	// NoLint skips the annotation-contract post-pass (internal/mslint)
	// that multiscalar builds otherwise run. Use it to assemble programs
	// that deliberately violate the contract (tests, fuzzing) or when the
	// caller runs the linter itself.
	NoLint bool
}

// Result is the full outcome of one assembly.
type Result struct {
	Prog *isa.Program
	// Lines maps every emitted instruction address to the source line of
	// the statement it came from (pseudo-instruction expansions share
	// their statement's line).
	Lines map[uint32]int
	// Lint is the annotation-contract report for multiscalar builds (nil
	// for scalar builds or when Options.NoLint is set). It is populated
	// even when AssembleOpts returns a lint error, so tools can render
	// the full report.
	Lint *mslint.Report
}

// Assemble translates source text into a program image for the given
// mode. Multiscalar builds are additionally checked against the
// annotation contract; a program with hard lint errors is rejected. Use
// AssembleOpts to opt out of the check or to receive the line table and
// the full lint report.
func Assemble(src string, mode Mode) (*isa.Program, error) {
	res, err := AssembleOpts(src, Options{Mode: mode})
	if err != nil {
		return nil, err
	}
	return res.Prog, nil
}

// AssembleOpts is Assemble with explicit options and a full result.
func AssembleOpts(src string, opts Options) (*Result, error) {
	a := &assembler{
		mode:    opts.Mode,
		symbols: make(map[string]uint32),
		prog: &isa.Program{
			Tasks:   make(map[uint32]*isa.TaskDescriptor),
			Symbols: nil,
		},
	}
	if err := a.pass1(src); err != nil {
		return nil, err
	}
	if err := a.pass2(); err != nil {
		return nil, err
	}
	a.prog.Symbols = a.symbols
	if err := a.prog.Validate(); err != nil {
		return nil, err
	}
	res := &Result{Prog: a.prog, Lines: a.lineTable()}
	if opts.Mode == ModeMultiscalar && !opts.NoLint {
		res.Lint = mslint.Lint(a.prog, res.Lines)
		if err := res.Lint.Err(); err != nil {
			return res, err
		}
	}
	return res, nil
}

// lineTable maps each emitted instruction address to its source line.
func (a *assembler) lineTable() map[uint32]int {
	lines := make(map[uint32]int, len(a.instrs))
	for i := range a.instrs {
		pi := &a.instrs[i]
		for k := 0; k < pi.size; k++ {
			lines[pi.addr+uint32(k)*isa.InstrSize] = pi.line
		}
	}
	return lines
}

// pendingInstr is an instruction statement awaiting symbol resolution.
type pendingInstr struct {
	line     int
	addr     uint32 // address of first emitted instruction
	size     int    // number of emitted instructions
	mnemonic string
	operands [][]token
	fwd      bool
	stop     isa.StopCond
}

// pendingPatch is a .word operand that is not a plain constant (it names
// a symbol or is a multi-term expression), evaluated in pass 2.
type pendingPatch struct {
	line   int
	offset int // into data buffer
	toks   []token
}

// pendingTask is a .task directive awaiting symbol resolution.
type pendingTask struct {
	line int
	args map[string][]token
	name string
}

type assembler struct {
	mode    Mode
	symbols map[string]uint32
	prog    *isa.Program

	inData  bool
	textPos uint32 // next instruction address
	data    []byte

	instrs  []pendingInstr
	patches []pendingPatch
	tasks   []pendingTask
	entry   string // .global name

	// Pass 1 lexes every line into one token buffer and splits operands
	// into one operand buffer; only what pass 2 reads again (instruction
	// operands, symbolic .word operands, .task lines) is copied out, into
	// the arenas.
	ops      [][]token
	tokArena []token
	opArena  [][]token
}

// retain copies s into the arena and returns the copy. A full arena is
// left to the copies already made in it and replaced by one twice the
// size, so a retained slice never moves and allocations stay logarithmic
// in what is retained.
func retain[T any](arena *[]T, s []T) []T {
	if len(s) > cap(*arena)-len(*arena) {
		*arena = make([]T, 0, max(len(s), 2*cap(*arena), 64))
	}
	n := len(*arena)
	*arena = append(*arena, s...)
	return (*arena)[n:len(*arena):len(*arena)]
}

func (a *assembler) errf(line int, format string, args ...interface{}) error {
	return fmt.Errorf("asm: line %d: %s", line, fmt.Sprintf(format, args...))
}

func (a *assembler) here() uint32 {
	if a.inData {
		return isa.DataBase + uint32(len(a.data))
	}
	return a.textPos
}

func (a *assembler) define(line int, name string) error {
	if _, dup := a.symbols[name]; dup {
		return a.errf(line, "duplicate label %q", name)
	}
	// The program keeps its symbol names: clone them, or each would keep
	// the whole source text alive with it.
	a.symbols[strings.Clone(name)] = a.here()
	return nil
}

func (a *assembler) pass1(src string) error {
	a.textPos = isa.TextBase
	// A data value takes at least two source bytes and usually four or
	// more, so the segment rarely outgrows this and its growth steps do
	// not multiply with the source.
	a.data = make([]byte, 0, len(src)/4)
	var toks []token
	for line := 1; len(src) > 0; line++ {
		raw := src
		if nl := strings.IndexByte(src, '\n'); nl >= 0 {
			raw, src = src[:nl], src[nl+1:]
		} else {
			src = ""
		}
		var err error
		if toks, err = lexLine(toks[:0], raw); err != nil {
			return a.errf(line, "%v", err)
		}
		if err := a.statement(line, toks); err != nil {
			return err
		}
	}
	return nil
}

// statement handles the tokens of one line in pass 1. toks is the lexer's
// buffer: whatever must outlive the line is copied with retain.
func (a *assembler) statement(line int, toks []token) error {
	// Leading labels: IDENT ':'.
	labels := toks
	for len(toks) >= 2 && toks[0].kind == tokIdent && toks[1].is(':') {
		toks = toks[2:]
	}
	labels = labels[:len(labels)-len(toks)]
	// A label on the same line as an aligning data directive must
	// name the aligned address, so align before defining it.
	if a.inData && len(toks) > 0 && toks[0].kind == tokDirective {
		switch toks[0].text {
		case ".half":
			a.alignData(2)
		case ".word", ".float":
			a.alignData(4)
		case ".double":
			a.alignData(8)
		}
	}
	for i := 0; i < len(labels); i += 2 {
		if err := a.define(line, labels[i].text); err != nil {
			return err
		}
	}
	if len(toks) == 0 {
		return nil
	}
	// Conditional-build prefixes.
	if toks[0].kind == tokDirective && (toks[0].text == ".msonly" || toks[0].text == ".sconly") {
		want := ModeMultiscalar
		if toks[0].text == ".sconly" {
			want = ModeScalar
		}
		if a.mode != want {
			return nil
		}
		toks = toks[1:]
		if len(toks) == 0 {
			return nil
		}
	}
	if toks[0].kind == tokDirective {
		return a.directive(line, toks)
	}
	if toks[0].kind != tokIdent {
		return a.errf(line, "expected instruction or directive")
	}
	if a.inData {
		return a.errf(line, "instruction %q in .data section", toks[0].text)
	}
	return a.instruction(line, toks)
}

// instruction records a pending instruction after sizing its expansion.
func (a *assembler) instruction(line int, toks []token) error {
	mn := toks[0].text
	rest := toks[1:]

	// Trailing annotations.
	fwd := false
	stop := isa.StopNone
	for len(rest) > 0 && rest[len(rest)-1].kind == tokAnnot {
		switch rest[len(rest)-1].text {
		case "!f":
			fwd = true
		case "!s":
			stop = isa.StopAlways
		case "!st":
			stop = isa.StopTaken
		case "!snt":
			stop = isa.StopNotTaken
		}
		rest = rest[:len(rest)-1]
	}
	if a.mode == ModeScalar {
		fwd, stop = false, isa.StopNone
		if mn == "release" {
			return a.errf(line, "release is multiscalar-only; prefix the line with .msonly")
		}
	}

	ops, err := a.splitOperands(retain(&a.tokArena, rest))
	if err != nil {
		return a.errf(line, "%v", err)
	}
	size, err := expansionSize(mn, ops)
	if err != nil {
		return a.errf(line, "%v", err)
	}
	a.instrs = append(a.instrs, pendingInstr{
		line: line, addr: a.textPos, size: size,
		mnemonic: mn, operands: retain(&a.opArena, ops), fwd: fwd, stop: stop,
	})
	a.textPos += uint32(size) * isa.InstrSize
	return nil
}

// splitOperands splits the token list on top-level commas. The result
// is the assembler's operand buffer, valid until the next call; its
// elements are subslices of toks.
func (a *assembler) splitOperands(toks []token) ([][]token, error) {
	if len(toks) == 0 {
		return nil, nil
	}
	out := a.ops[:0]
	start := 0
	depth := 0
	for i, t := range toks {
		if t.kind == tokPunct {
			switch t.text[0] {
			case '(':
				depth++
			case ')':
				depth--
				if depth < 0 {
					return nil, fmt.Errorf("unbalanced ')'")
				}
			case ',':
				if depth == 0 {
					if i == start {
						return nil, fmt.Errorf("empty operand")
					}
					out = append(out, toks[start:i])
					start = i + 1
				}
			}
		}
	}
	if depth != 0 {
		return nil, fmt.Errorf("unbalanced '('")
	}
	if start >= len(toks) {
		return nil, fmt.Errorf("trailing comma")
	}
	out = append(out, toks[start:])
	a.ops = out
	return out, nil
}

func (a *assembler) pass2() error {
	a.prog.Data = a.data
	// Resolve entry.
	entryName := a.entry
	if entryName == "" {
		if _, ok := a.symbols["main"]; ok {
			entryName = "main"
		}
	}
	if entryName != "" {
		addr, ok := a.symbols[entryName]
		if !ok {
			return fmt.Errorf("asm: entry symbol %q undefined", entryName)
		}
		a.prog.Entry = addr
	} else {
		a.prog.Entry = isa.TextBase
	}

	// Emit instructions.
	text := make([]isa.Instr, 0, (a.textPos-isa.TextBase)/isa.InstrSize)
	for i := range a.instrs {
		var err error
		if text, err = a.emit(text, &a.instrs[i]); err != nil {
			return err
		}
	}
	a.prog.Text = text

	// Patch the data words pass 1 could not evaluate.
	for _, p := range a.patches {
		v, err := a.evalExpr(p.line, p.toks)
		if err != nil {
			return err
		}
		binary.BigEndian.PutUint32(a.prog.Data[p.offset:], uint32(v))
	}

	// Resolve task descriptors.
	if a.mode == ModeMultiscalar {
		for _, pt := range a.tasks {
			if err := a.resolveTask(pt); err != nil {
				return err
			}
		}
	}
	return nil
}

// evalExpr evaluates ['-'] term (('+'|'-') term)* where term is a number
// or a defined symbol.
func (a *assembler) evalExpr(line int, toks []token) (int64, error) {
	if len(toks) == 0 {
		return 0, a.errf(line, "empty expression")
	}
	pos := 0
	neg := false
	if toks[0].is('-') || toks[0].is('+') {
		neg = toks[0].is('-')
		pos = 1
	}
	term := func() (int64, error) {
		if pos >= len(toks) {
			return 0, a.errf(line, "expression ends unexpectedly")
		}
		t := toks[pos]
		pos++
		switch t.kind {
		case tokNum:
			return t.num, nil
		case tokFloat:
			return 0, a.errf(line, "float %q in integer expression", t.text)
		case tokIdent:
			v, ok := a.symbols[t.text]
			if !ok {
				return 0, a.errf(line, "undefined symbol %q", t.text)
			}
			return int64(v), nil
		default:
			return 0, a.errf(line, "unexpected token %q in expression", t.text)
		}
	}
	v, err := term()
	if err != nil {
		return 0, err
	}
	if neg {
		v = -v
	}
	for pos < len(toks) {
		t := toks[pos]
		if !t.is('+') && !t.is('-') {
			return 0, a.errf(line, "unexpected token %q in expression", t.text)
		}
		pos++
		w, err := term()
		if err != nil {
			return 0, err
		}
		if t.is('+') {
			v += w
		} else {
			v -= w
		}
	}
	return v, nil
}
