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

// pseudoOps are the single-instruction pseudo mnemonics.
var pseudoOps = map[string]bool{
	"li": true, "la": true, "move": true, "b": true,
	"beqz": true, "bnez": true, "neg": true, "not": true,
	"ret": true,
}

// immForm maps a register-form integer op to its immediate form when the
// third operand is an expression rather than a register.
var immForm = map[isa.Op]isa.Op{
	isa.OpAdd: isa.OpAddi, isa.OpAnd: isa.OpAndi, isa.OpOr: isa.OpOri,
	isa.OpXor: isa.OpXori, isa.OpSlt: isa.OpSlti, isa.OpSltu: isa.OpSltiu,
	isa.OpSllv: isa.OpSll, isa.OpSrlv: isa.OpSrl, isa.OpSrav: isa.OpSra,
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

func (a *assembler) wantOps(pi *pendingInstr, n int) error {
	if len(pi.operands) != n {
		return a.errf(pi.line, "%s wants %d operands, got %d", pi.mnemonic, n, len(pi.operands))
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

	// Pseudo instructions first.
	switch mn {
	case "nop":
		if err := a.wantOps(pi, 0); err != nil {
			return nil, err
		}
		return append(out, isa.Instr{Op: isa.OpNop}), nil
	case "li", "la":
		if err := a.wantOps(pi, 2); err != nil {
			return nil, err
		}
		rd, err := a.reg(line, ops[0])
		if err != nil {
			return nil, err
		}
		imm, err := a.imm(line, ops[1])
		if err != nil {
			return nil, err
		}
		return append(out, isa.Instr{Op: isa.OpOri, Rd: rd, Rs: isa.RegZero, Imm: imm}), nil
	case "move":
		if err := a.wantOps(pi, 2); err != nil {
			return nil, err
		}
		rd, err := a.reg(line, ops[0])
		if err != nil {
			return nil, err
		}
		rs, err := a.reg(line, ops[1])
		if err != nil {
			return nil, err
		}
		return append(out, isa.Instr{Op: isa.OpOr, Rd: rd, Rs: rs, Rt: isa.RegZero}), nil
	case "b":
		if err := a.wantOps(pi, 1); err != nil {
			return nil, err
		}
		t, err := a.target(line, ops[0])
		if err != nil {
			return nil, err
		}
		return append(out, isa.Instr{Op: isa.OpJ, Target: t}), nil
	case "beqz", "bnez":
		if err := a.wantOps(pi, 2); err != nil {
			return nil, err
		}
		rs, err := a.reg(line, ops[0])
		if err != nil {
			return nil, err
		}
		t, err := a.target(line, ops[1])
		if err != nil {
			return nil, err
		}
		op := isa.OpBeq
		if mn == "bnez" {
			op = isa.OpBne
		}
		return append(out, isa.Instr{Op: op, Rs: rs, Rt: isa.RegZero, Target: t}), nil
	case "blt", "bge", "bgt", "ble":
		if err := a.wantOps(pi, 3); err != nil {
			return nil, err
		}
		rs, err := a.reg(line, ops[0])
		if err != nil {
			return nil, err
		}
		rt, err := a.reg(line, ops[1])
		if err != nil {
			return nil, err
		}
		t, err := a.target(line, ops[2])
		if err != nil {
			return nil, err
		}
		x, y := rs, rt
		if mn == "bgt" || mn == "ble" {
			x, y = rt, rs
		}
		br := isa.OpBne
		if mn == "bge" || mn == "ble" {
			br = isa.OpBeq
		}
		return append(out,
			isa.Instr{Op: isa.OpSlt, Rd: isa.RegAT, Rs: x, Rt: y},
			isa.Instr{Op: br, Rs: isa.RegAT, Rt: isa.RegZero, Target: t},
		), nil
	case "neg":
		if err := a.wantOps(pi, 2); err != nil {
			return nil, err
		}
		rd, err := a.reg(line, ops[0])
		if err != nil {
			return nil, err
		}
		rs, err := a.reg(line, ops[1])
		if err != nil {
			return nil, err
		}
		return append(out, isa.Instr{Op: isa.OpSub, Rd: rd, Rs: isa.RegZero, Rt: rs}), nil
	case "not":
		if err := a.wantOps(pi, 2); err != nil {
			return nil, err
		}
		rd, err := a.reg(line, ops[0])
		if err != nil {
			return nil, err
		}
		rs, err := a.reg(line, ops[1])
		if err != nil {
			return nil, err
		}
		return append(out, isa.Instr{Op: isa.OpNor, Rd: rd, Rs: rs, Rt: isa.RegZero}), nil
	case "ret":
		if err := a.wantOps(pi, 0); err != nil {
			return nil, err
		}
		return append(out, isa.Instr{Op: isa.OpJr, Rs: isa.RegRA}), nil
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

	op, ok := isa.OpByName(mn)
	if !ok {
		return nil, a.errf(line, "unknown mnemonic %q", mn)
	}
	in := isa.Instr{Op: op}

	switch op {
	case isa.OpNop, isa.OpSyscall:
		if err := a.wantOps(pi, 0); err != nil {
			return nil, err
		}
	case isa.OpJ:
		if err := a.wantOps(pi, 1); err != nil {
			return nil, err
		}
		t, err := a.target(line, ops[0])
		if err != nil {
			return nil, err
		}
		in.Target = t
	case isa.OpJal:
		if err := a.wantOps(pi, 1); err != nil {
			return nil, err
		}
		t, err := a.target(line, ops[0])
		if err != nil {
			return nil, err
		}
		in.Target = t
		in.Rd = isa.RegRA
	case isa.OpJr, isa.OpRelease:
		if err := a.wantOps(pi, 1); err != nil {
			return nil, err
		}
		rs, err := a.reg(line, ops[0])
		if err != nil {
			return nil, err
		}
		in.Rs = rs
	case isa.OpJalr:
		switch len(ops) {
		case 1:
			rs, err := a.reg(line, ops[0])
			if err != nil {
				return nil, err
			}
			in.Rd, in.Rs = isa.RegRA, rs
		case 2:
			rd, err := a.reg(line, ops[0])
			if err != nil {
				return nil, err
			}
			rs, err := a.reg(line, ops[1])
			if err != nil {
				return nil, err
			}
			in.Rd, in.Rs = rd, rs
		default:
			return nil, a.errf(line, "jalr wants 1 or 2 operands")
		}
	case isa.OpBeq, isa.OpBne:
		if err := a.wantOps(pi, 3); err != nil {
			return nil, err
		}
		rs, err := a.reg(line, ops[0])
		if err != nil {
			return nil, err
		}
		rt, err := a.reg(line, ops[1])
		if err != nil {
			return nil, err
		}
		t, err := a.target(line, ops[2])
		if err != nil {
			return nil, err
		}
		in.Rs, in.Rt, in.Target = rs, rt, t
	case isa.OpBlez, isa.OpBgtz, isa.OpBltz, isa.OpBgez:
		if err := a.wantOps(pi, 2); err != nil {
			return nil, err
		}
		rs, err := a.reg(line, ops[0])
		if err != nil {
			return nil, err
		}
		t, err := a.target(line, ops[1])
		if err != nil {
			return nil, err
		}
		in.Rs, in.Target = rs, t
	case isa.OpBc1t, isa.OpBc1f:
		if err := a.wantOps(pi, 1); err != nil {
			return nil, err
		}
		t, err := a.target(line, ops[0])
		if err != nil {
			return nil, err
		}
		in.Target = t
	case isa.OpLui:
		if err := a.wantOps(pi, 2); err != nil {
			return nil, err
		}
		rd, err := a.reg(line, ops[0])
		if err != nil {
			return nil, err
		}
		imm, err := a.imm(line, ops[1])
		if err != nil {
			return nil, err
		}
		in.Rd, in.Imm = rd, imm
	case isa.OpCEqD, isa.OpCLtD, isa.OpCLeD:
		if err := a.wantOps(pi, 2); err != nil {
			return nil, err
		}
		rs, err := a.reg(line, ops[0])
		if err != nil {
			return nil, err
		}
		rt, err := a.reg(line, ops[1])
		if err != nil {
			return nil, err
		}
		in.Rs, in.Rt = rs, rt
	case isa.OpMovD, isa.OpNegD, isa.OpAbsD, isa.OpSqrtD,
		isa.OpCvtDW, isa.OpCvtWD, isa.OpCvtSD, isa.OpCvtDS,
		isa.OpMtc1, isa.OpMfc1:
		if err := a.wantOps(pi, 2); err != nil {
			return nil, err
		}
		rd, err := a.reg(line, ops[0])
		if err != nil {
			return nil, err
		}
		rs, err := a.reg(line, ops[1])
		if err != nil {
			return nil, err
		}
		in.Rd, in.Rs = rd, rs
	default:
		switch {
		case op.IsLoad():
			if err := a.wantOps(pi, 2); err != nil {
				return nil, err
			}
			rd, err := a.reg(line, ops[0])
			if err != nil {
				return nil, err
			}
			base, off, err := a.mem(line, ops[1])
			if err != nil {
				return nil, err
			}
			in.Rd, in.Rs, in.Imm = rd, base, off
		case op.IsStore():
			if err := a.wantOps(pi, 2); err != nil {
				return nil, err
			}
			rt, err := a.reg(line, ops[0])
			if err != nil {
				return nil, err
			}
			base, off, err := a.mem(line, ops[1])
			if err != nil {
				return nil, err
			}
			in.Rt, in.Rs, in.Imm = rt, base, off
		case op.HasImm():
			// Explicit immediate forms: addi rd, rs, imm.
			if err := a.wantOps(pi, 3); err != nil {
				return nil, err
			}
			rd, err := a.reg(line, ops[0])
			if err != nil {
				return nil, err
			}
			rs, err := a.reg(line, ops[1])
			if err != nil {
				return nil, err
			}
			imm, err := a.imm(line, ops[2])
			if err != nil {
				return nil, err
			}
			in.Rd, in.Rs, in.Imm = rd, rs, imm
		default:
			// Register 3-operand forms; the third operand may be an
			// immediate if an immediate form exists (sub accepts an
			// immediate via addi of the negation).
			if err := a.wantOps(pi, 3); err != nil {
				return nil, err
			}
			rd, err := a.reg(line, ops[0])
			if err != nil {
				return nil, err
			}
			rs, err := a.reg(line, ops[1])
			if err != nil {
				return nil, err
			}
			in.Rd, in.Rs = rd, rs
			if a.isReg(ops[2]) {
				rt, err := a.reg(line, ops[2])
				if err != nil {
					return nil, err
				}
				in.Rt = rt
			} else {
				imm, err := a.imm(line, ops[2])
				if err != nil {
					return nil, err
				}
				switch {
				case op == isa.OpSub:
					in.Op, in.Imm = isa.OpAddi, -imm
				case op == isa.OpMul || op == isa.OpDiv || op == isa.OpRem:
					// Expand through the assembler temporary.
					in.Rt = isa.RegAT
					return append(out,
						isa.Instr{Op: isa.OpOri, Rd: isa.RegAT, Rs: isa.RegZero, Imm: imm},
						in,
					), nil
				default:
					if iop, ok := immForm[op]; ok {
						in.Op, in.Imm = iop, imm
					} else {
						return nil, a.errf(line, "%s has no immediate form", mn)
					}
				}
			}
		}
	}
	return append(out, in), nil
}
