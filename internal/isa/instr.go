package isa

import "strconv"

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
	if i.Op.WritesRd() {
		return i.Rd
	}
	return RegZero
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

// SourceRegs is the allocation-free form of Sources: the registers come
// back in a by-value array instead of a heap slice. The FP condition
// flag bc1t/bc1f read is tracked separately (ReadsFCC).
func (i *Instr) SourceRegs() (srcs [5]Reg, n int) {
	n = i.Op.NumSources()
	if n > 0 {
		srcs[0] = i.Rs
	}
	if n > 1 {
		srcs[1] = i.Rt
	}
	n += copy(srcs[n:], opInfos[i.Op].uses)
	return srcs, n
}

// ReadsFCC reports whether the instruction reads the FP condition flag.
func (i *Instr) ReadsFCC() bool { return i.Op.ReadsFCC() }

// String disassembles the instruction, including annotation suffixes:
// the mnemonic, then one operand per slot of the operation's form, in
// the syntax the assembler parses by walking the same list.
func (i *Instr) String() string {
	b := append(make([]byte, 0, 40), i.Op.String()...)
	for k, s := range i.Op.Form() {
		if k > 0 {
			b = append(b, ',')
		}
		b = append(b, ' ')
		switch s {
		case SlotRd:
			b = append(b, i.Rd.String()...)
		case SlotRs:
			b = append(b, i.Rs.String()...)
		case SlotRt:
			b = append(b, i.Rt.String()...)
		case SlotImm:
			b = strconv.AppendInt(b, int64(i.Imm), 10)
		case SlotMem:
			b = strconv.AppendInt(b, int64(i.Imm), 10)
			b = append(append(append(b, '('), i.Rs.String()...), ')')
		case SlotTarget:
			b = strconv.AppendUint(append(b, "0x"...), uint64(i.Target), 16)
		}
	}
	if i.Fwd {
		b = append(b, " !f"...)
	}
	if i.Stop != StopNone {
		b = append(append(b, ' '), i.Stop.String()...)
	}
	return string(b)
}
