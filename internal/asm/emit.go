package asm

import (
	"fmt"

	"multiscalar/internal/isa"
)

// expansionSize returns how many instructions a mnemonic expands to, so
// pass 1 can lay out addresses before symbols are resolved.
func expansionSize(mn string, ops [][]token) (int, error) {
	switch mn {
	case "blt", "bge", "bgt", "ble":
		return 2, nil
	case "mul", "div", "rem":
		// No immediate encoding: a constant third operand expands through
		// $at (li $at, imm; op rd, rs, $at).
		if len(ops) == 3 && !(len(ops[2]) == 1 && ops[2][0].kind == tokReg) {
			return 2, nil
		}
		return 1, nil
	case "release":
		if len(ops) == 0 {
			return 0, fmt.Errorf("release wants at least one register")
		}
		return len(ops), nil
	default:
		if _, ok := isa.OpByName(mn); ok {
			return 1, nil
		}
		if _, ok := pseudoOps[mn]; ok {
			return 1, nil
		}
		return 0, fmt.Errorf("unknown mnemonic %q", mn)
	}
}

// pseudoOps are the single-instruction pseudo mnemonics: the real
// instruction each stands for with its fixed fields filled in ($zero is
// the zero value), and the operand slots the written form supplies.
var pseudoOps = map[string]struct {
	in   isa.Instr
	form []isa.Slot
}{
	"li":   {isa.Instr{Op: isa.OpOri}, []isa.Slot{isa.SlotRd, isa.SlotImm}},
	"la":   {isa.Instr{Op: isa.OpOri}, []isa.Slot{isa.SlotRd, isa.SlotImm}},
	"move": {isa.Instr{Op: isa.OpOr}, []isa.Slot{isa.SlotRd, isa.SlotRs}},
	"neg":  {isa.Instr{Op: isa.OpSub}, []isa.Slot{isa.SlotRd, isa.SlotRt}},
	"not":  {isa.Instr{Op: isa.OpNor}, []isa.Slot{isa.SlotRd, isa.SlotRs}},
	"b":    {isa.Instr{Op: isa.OpJ}, []isa.Slot{isa.SlotTarget}},
	"beqz": {isa.Instr{Op: isa.OpBeq}, []isa.Slot{isa.SlotRs, isa.SlotTarget}},
	"bnez": {isa.Instr{Op: isa.OpBne}, []isa.Slot{isa.SlotRs, isa.SlotTarget}},
	"ret":  {isa.Instr{Op: isa.OpJr, Rs: isa.RegRA}, nil},
}

func (a *assembler) reg(line int, op []token) (isa.Reg, error) {
	if len(op) != 1 || op[0].kind != tokReg {
		return 0, a.errf(line, "expected register operand")
	}
	r, err := isa.ParseReg(op[0].text)
	if err != nil {
		return 0, a.errf(line, "%v", err)
	}
	return r, nil
}

func (a *assembler) isReg(op []token) bool {
	return len(op) == 1 && op[0].kind == tokReg
}

func (a *assembler) imm(line int, op []token) (int32, error) {
	v, err := a.evalExpr(line, op)
	if err != nil {
		return 0, err
	}
	if v > 0x7fffffff || v < -0x80000000 {
		return 0, a.errf(line, "immediate %d out of 32-bit range", v)
	}
	return int32(v), nil
}

func (a *assembler) target(line int, op []token) (uint32, error) {
	v, err := a.evalExpr(line, op)
	if err != nil {
		return 0, err
	}
	if v < 0 || v > 0xffffffff {
		return 0, a.errf(line, "target %d out of range", v)
	}
	return uint32(v), nil
}

// mem parses "expr(reg)" or a bare "expr" (absolute address, base $zero).
func (a *assembler) mem(line int, op []token) (base isa.Reg, off int32, err error) {
	// Find a top-level '(' ... ')' suffix.
	openIdx := -1
	for i, t := range op {
		if t.is('(') {
			openIdx = i
			break
		}
	}
	if openIdx == -1 {
		v, err := a.imm(line, op)
		return isa.RegZero, v, err
	}
	if !op[len(op)-1].is(')') {
		return 0, 0, a.errf(line, "bad memory operand")
	}
	inner := op[openIdx+1 : len(op)-1]
	if len(inner) != 1 || inner[0].kind != tokReg {
		return 0, 0, a.errf(line, "memory operand wants (register)")
	}
	base, err = isa.ParseReg(inner[0].text)
	if err != nil {
		return 0, 0, a.errf(line, "%v", err)
	}
	if openIdx == 0 {
		return base, 0, nil
	}
	off, err = a.imm(line, op[:openIdx])
	return base, off, err
}

// operands parses pi's operands into the fields of in that form names,
// one operand per slot, in order.
func (a *assembler) operands(pi *pendingInstr, form []isa.Slot, in *isa.Instr) error {
	if len(pi.operands) != len(form) {
		return a.errf(pi.line, "%s wants %d operands, got %d", pi.mnemonic, len(form), len(pi.operands))
	}
	for k, op := range pi.operands {
		var err error
		switch form[k] {
		case isa.SlotRd:
			in.Rd, err = a.reg(pi.line, op)
		case isa.SlotRs:
			in.Rs, err = a.reg(pi.line, op)
		case isa.SlotRt:
			in.Rt, err = a.reg(pi.line, op)
		case isa.SlotImm:
			in.Imm, err = a.imm(pi.line, op)
		case isa.SlotMem:
			in.Rs, in.Imm, err = a.mem(pi.line, op)
		case isa.SlotTarget:
			in.Target, err = a.target(pi.line, op)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// emit appends the final form(s) of one pending instruction to text.
func (a *assembler) emit(text []isa.Instr, pi *pendingInstr) ([]isa.Instr, error) {
	line := pi.line
	out, err := a.emitBody(text, pi)
	if err != nil {
		return nil, err
	}
	if len(out)-len(text) != pi.size {
		return nil, a.errf(line, "internal: expansion size mismatch for %q (%d vs %d)",
			pi.mnemonic, len(out)-len(text), pi.size)
	}
	last := &out[len(out)-1]
	if pi.fwd {
		if last.Dest() == isa.RegZero {
			return nil, a.errf(line, "!f on instruction with no destination register")
		}
		last.Fwd = true
	}
	if pi.stop != isa.StopNone {
		if (pi.stop == isa.StopTaken || pi.stop == isa.StopNotTaken) && !last.Op.IsBranch() {
			return nil, a.errf(line, "%s only valid on conditional branches", pi.stop)
		}
		last.Stop = pi.stop
	}
	return out, nil
}

func (a *assembler) emitBody(out []isa.Instr, pi *pendingInstr) ([]isa.Instr, error) {
	line := pi.line
	mn := pi.mnemonic
	ops := pi.operands

	// The two mnemonics that are not one instruction of one form.
	switch mn {
	case "blt", "bge", "bgt", "ble":
		var c isa.Instr // rs, rt, target: written like the beq it ends in
		if err := a.operands(pi, isa.OpBeq.Form(), &c); err != nil {
			return nil, err
		}
		x, y := c.Rs, c.Rt
		if mn == "bgt" || mn == "ble" {
			x, y = y, x
		}
		br := isa.OpBne
		if mn == "bge" || mn == "ble" {
			br = isa.OpBeq
		}
		return append(out,
			isa.Instr{Op: isa.OpSlt, Rd: isa.RegAT, Rs: x, Rt: y},
			isa.Instr{Op: br, Rs: isa.RegAT, Rt: isa.RegZero, Target: c.Target},
		), nil
	case "release":
		for _, op := range ops {
			r, err := a.reg(line, op)
			if err != nil {
				return nil, err
			}
			out = append(out, isa.Instr{Op: isa.OpRelease, Rs: r})
		}
		return out, nil
	}

	var in isa.Instr
	var form []isa.Slot
	if op, ok := isa.OpByName(mn); ok {
		in, form = isa.Instr{Op: op, Rd: op.DefaultRd()}, op.Form()
	} else if p, ok := pseudoOps[mn]; ok {
		in, form = p.in, p.form
	} else {
		return nil, a.errf(line, "unknown mnemonic %q", mn)
	}

	switch {
	case mn == "jalr" && len(ops) == 1:
		form = form[1:] // jalr rs: the link register stays the default
	case mn == "jalr" && len(ops) != 2:
		return nil, a.errf(line, "jalr wants 1 or 2 operands")
	case len(form) == 3 && form[2] == isa.SlotRt && len(ops) == 3 && !a.isReg(ops[2]):
		return a.emitConstOperand(out, pi, in)
	}
	if err := a.operands(pi, form, &in); err != nil {
		return nil, err
	}
	return append(out, in), nil
}

// emitConstOperand assembles a 3-register operation whose third operand
// is a constant: the operation's immediate twin where the ISA has one,
// addi of the negation for sub, and for mul, div and rem, which have no
// immediate encoding, a load of the constant into $at first.
func (a *assembler) emitConstOperand(out []isa.Instr, pi *pendingInstr, in isa.Instr) ([]isa.Instr, error) {
	if err := a.operands(pi, isa.OpAddi.Form(), &in); err != nil { // rd, rs, imm
		return nil, err
	}
	twin, hasTwin := in.Op.ImmForm()
	switch {
	case hasTwin:
		in.Op = twin
	case in.Op == isa.OpSub:
		in.Op, in.Imm = isa.OpAddi, -in.Imm
	case in.Op == isa.OpMul || in.Op == isa.OpDiv || in.Op == isa.OpRem:
		li := isa.Instr{Op: isa.OpOri, Rd: isa.RegAT, Rs: isa.RegZero, Imm: in.Imm}
		in.Rt, in.Imm = isa.RegAT, 0
		return append(out, li, in), nil
	default:
		return nil, a.errf(pi.line, "%s has no immediate form", pi.mnemonic)
	}
	return append(out, in), nil
}
