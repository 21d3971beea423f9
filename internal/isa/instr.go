package isa

import (
	"fmt"
	"strings"
)

// StopCond is the stop-bit encoding attached to an instruction
// (Section 2.2): when a processing unit retires an instruction whose stop
// condition is satisfied, its task is complete.
type StopCond uint8

const (
	StopNone     StopCond = iota // not a task exit
	StopAlways                   // task ends after this instruction
	StopTaken                    // task ends if this branch is taken
	StopNotTaken                 // task ends if this branch falls through
)

// Holds reports whether the stop condition is satisfied by a retired
// instruction whose control transfer was taken (or not).
func (s StopCond) Holds(taken bool) bool {
	switch s {
	case StopAlways:
		return true
	case StopTaken:
		return taken
	case StopNotTaken:
		return !taken
	}
	return false
}

func (s StopCond) String() string {
	switch s {
	case StopNone:
		return ""
	case StopAlways:
		return "!s"
	case StopTaken:
		return "!st"
	case StopNotTaken:
		return "!snt"
	default:
		return "!bad-stop"
	}
}

// Instr is one decoded instruction together with its multiscalar tag bits.
// The paper keeps tag bits in a table beside the program text and
// concatenates them with the fetched instruction (Section 2.2); we carry
// them directly on the decoded form.
type Instr struct {
	Op     Op
	Rd     Reg    // destination register (integer or FP)
	Rs     Reg    // first source
	Rt     Reg    // second source (also store data register)
	Imm    int32  // immediate operand / shift amount / memory offset
	Target uint32 // byte address for branches and direct jumps

	Fwd  bool     // forward bit: route Rd's value on the ring at local retire
	Stop StopCond // stop bits
}

// Dest returns the register this instruction writes, or RegZero if none.
// Writes to $zero are discarded, so a RegZero result always means
// "no architectural register output".
func (i *Instr) Dest() Reg {
	switch i.Op {
	case OpNop, OpJ, OpJr, OpRelease, OpSyscall,
		OpSb, OpSh, OpSw, OpSwc1, OpSdc1,
		OpBeq, OpBne, OpBlez, OpBgtz, OpBltz, OpBgez, OpBc1t, OpBc1f,
		OpCEqD, OpCLtD, OpCLeD:
		return RegZero
	default:
		return i.Rd
	}
}

// Sources returns the architectural registers this instruction reads.
// $zero reads are included (they are always ready). Syscall sources
// ($v0, $a0-$a3) are reported so dependence tracking treats them as reads.
func (i *Instr) Sources() []Reg {
	srcs, n := i.SourceRegs()
	if n == 0 {
		return nil
	}
	return srcs[:n:n]
}

// SourceRegs is the allocation-free form of Sources: the issue stage
// calls it once per issue attempt, so the registers come back in a
// by-value array instead of a heap slice.
func (i *Instr) SourceRegs() (srcs [5]Reg, n int) {
	switch i.Op {
	case OpNop, OpJ, OpJal, OpLui:
		return srcs, 0
	case OpJr, OpJalr, OpRelease, OpBltz, OpBgez, OpBlez, OpBgtz:
		srcs[0] = i.Rs
		return srcs, 1
	case OpBc1t, OpBc1f:
		return srcs, 0 // read the FP condition flag, tracked separately
	case OpBeq, OpBne:
		srcs[0], srcs[1] = i.Rs, i.Rt
		return srcs, 2
	case OpSb, OpSh, OpSw, OpSwc1, OpSdc1:
		srcs[0], srcs[1] = i.Rs, i.Rt // address base + data
		return srcs, 2
	case OpSyscall:
		srcs = [5]Reg{RegV0, RegA0, RegA1, RegA2, RegA3}
		return srcs, 5
	default:
		if i.Op.HasImm() {
			srcs[0] = i.Rs
			return srcs, 1
		}
		srcs[0], srcs[1] = i.Rs, i.Rt
		return srcs, 2
	}
}

// ReadsFCC reports whether the instruction reads the FP condition flag.
func (i *Instr) ReadsFCC() bool { return i.Op == OpBc1t || i.Op == OpBc1f }

// String disassembles the instruction, including annotation suffixes.
func (i *Instr) String() string {
	var b strings.Builder
	b.WriteString(i.Op.String())
	args := i.operands()
	if args != "" {
		b.WriteByte(' ')
		b.WriteString(args)
	}
	if i.Fwd {
		b.WriteString(" !f")
	}
	if i.Stop != StopNone {
		b.WriteByte(' ')
		b.WriteString(i.Stop.String())
	}
	return b.String()
}

func (i *Instr) operands() string {
	switch i.Op {
	case OpNop, OpSyscall:
		return ""
	case OpJ, OpJal:
		return fmt.Sprintf("0x%x", i.Target)
	case OpJr:
		return i.Rs.String()
	case OpJalr:
		return fmt.Sprintf("%s, %s", i.Rd, i.Rs)
	case OpRelease:
		return i.Rs.String()
	case OpBeq, OpBne:
		return fmt.Sprintf("%s, %s, 0x%x", i.Rs, i.Rt, i.Target)
	case OpBlez, OpBgtz, OpBltz, OpBgez:
		return fmt.Sprintf("%s, 0x%x", i.Rs, i.Target)
	case OpBc1t, OpBc1f:
		return fmt.Sprintf("0x%x", i.Target)
	case OpLui:
		return fmt.Sprintf("%s, %d", i.Rd, i.Imm)
	case OpCEqD, OpCLtD, OpCLeD:
		return fmt.Sprintf("%s, %s", i.Rs, i.Rt)
	case OpMovD, OpNegD, OpAbsD, OpSqrtD, OpCvtDW, OpCvtWD, OpCvtSD, OpCvtDS, OpMtc1, OpMfc1:
		return fmt.Sprintf("%s, %s", i.Rd, i.Rs)
	default:
		switch {
		case i.Op.IsLoad():
			return fmt.Sprintf("%s, %d(%s)", i.Rd, i.Imm, i.Rs)
		case i.Op.IsStore():
			return fmt.Sprintf("%s, %d(%s)", i.Rt, i.Imm, i.Rs)
		case i.Op.HasImm():
			return fmt.Sprintf("%s, %s, %d", i.Rd, i.Rs, i.Imm)
		default:
			return fmt.Sprintf("%s, %s, %s", i.Rd, i.Rs, i.Rt)
		}
	}
}
