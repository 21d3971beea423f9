package interp

import (
	"multiscalar/internal/isa"
	"multiscalar/internal/mem"
)

// This file implements the decoded-µop cache: every instruction of a
// program is predecoded once into a dispatch-ready µop — handler index,
// resolved destination register, immediate and memory width — and Step
// dispatches on the dense handler index instead of re-classifying the
// architectural instruction on every execution. The decoded form of a
// program is shared across machines through a package-level cache, so
// the oracle runs the bench harness memoizes pay the decode cost once
// per program image (see docs/perf.md).

// uopKind is the µop handler index. The constants must stay dense: Step
// switches on the kind and the compiler lowers the dense switch to a
// jump table.
type uopKind uint8

const (
	// uExec funnels through Exec, which remains the single home of the
	// semantics of everything without a handler of its own (single-
	// precision FP, conversions, div/rem with their trap checks). It is
	// the zero value: an opcode opKinds does not list executes correctly.
	uExec uopKind = iota

	uNop
	uSyscall

	// Memory. uLw is split out from the generic load/store handlers:
	// word loads dominate the memory mix and skip the LoadValue switch.
	uLw
	uLoad
	uSw
	uStore

	// Control.
	uJ
	uJal
	uJr
	uJalr
	uBeq
	uBne
	uBlez
	uBgtz
	uBltz
	uBgez

	// Integer ALU, inlined so the hot path avoids the Exec switch and
	// its by-value ExecResult. From here to uMovD the handlers write
	// Regs[rd] unguarded; decodeInstr keeps $zero out of them.
	uAdd
	uAddi
	uSub
	uMul
	uAnd
	uAndi
	uOr
	uOri
	uXor
	uXori
	uNor
	uSll
	uSrl
	uSra
	uSllv
	uSrlv
	uSrav
	uSlt
	uSltu
	uSlti
	uSltiu
	uLui

	// Double-precision FP arithmetic, compares and FCC branches,
	// inlined for the numeric workloads.
	uAddD
	uSubD
	uMulD
	uDivD
	uMovD
	uCEqD
	uCLtD
	uCLeD
	uBc1t
	uBc1f
)

// uop is one predecoded instruction. Operand registers are resolved at
// decode time — rd is the register the instruction actually writes
// (RegZero when it writes nothing), so handlers need no Dest() call and
// no $zero guard beyond a single compare.
type uop struct {
	kind   uopKind
	rd     isa.Reg
	rs     isa.Reg
	rt     isa.Reg
	op     isa.Op
	size   uint8        // memory access width in bytes
	stop   isa.StopCond // task-exit condition (this and runEnd fill the struct's padding)
	runEnd bool         // control or stop-bit instruction: it ends a straight-line run (Warmer)
	imm    int32        // immediate / shift amount / memory offset
	target uint32       // branch or jump target byte address
}

// opKinds is the handler each opcode decodes to. Div and rem are absent
// on purpose: their divide-by-zero trap fires even with a $zero
// destination, and Exec owns it.
var opKinds = [256]uopKind{
	// Release is a pure annotation to the functional engine.
	isa.OpNop: uNop, isa.OpRelease: uNop, isa.OpSyscall: uSyscall,

	isa.OpLw: uLw, isa.OpLb: uLoad, isa.OpLbu: uLoad, isa.OpLh: uLoad, isa.OpLhu: uLoad,
	isa.OpLwc1: uLoad, isa.OpLdc1: uLoad,
	isa.OpSw: uSw, isa.OpSb: uStore, isa.OpSh: uStore, isa.OpSwc1: uStore, isa.OpSdc1: uStore,

	isa.OpJ: uJ, isa.OpJal: uJal, isa.OpJr: uJr, isa.OpJalr: uJalr,
	isa.OpBeq: uBeq, isa.OpBne: uBne, isa.OpBlez: uBlez,
	isa.OpBgtz: uBgtz, isa.OpBltz: uBltz, isa.OpBgez: uBgez,
	isa.OpBc1t: uBc1t, isa.OpBc1f: uBc1f,

	isa.OpAdd: uAdd, isa.OpAddi: uAddi, isa.OpSub: uSub, isa.OpMul: uMul,
	isa.OpAnd: uAnd, isa.OpAndi: uAndi, isa.OpOr: uOr, isa.OpOri: uOri,
	isa.OpXor: uXor, isa.OpXori: uXori, isa.OpNor: uNor,
	isa.OpSll: uSll, isa.OpSrl: uSrl, isa.OpSra: uSra,
	isa.OpSllv: uSllv, isa.OpSrlv: uSrlv, isa.OpSrav: uSrav,
	isa.OpSlt: uSlt, isa.OpSltu: uSltu, isa.OpSlti: uSlti, isa.OpSltiu: uSltiu,
	isa.OpLui: uLui,

	isa.OpAddD: uAddD, isa.OpSubD: uSubD, isa.OpMulD: uMulD,
	isa.OpDivD: uDivD, isa.OpMovD: uMovD,
	isa.OpCEqD: uCEqD, isa.OpCLtD: uCLtD, isa.OpCLeD: uCLeD,
}

// decodeInstr translates one architectural instruction into its µop.
func decodeInstr(in *isa.Instr) uop {
	u := uop{
		kind:   opKinds[in.Op],
		rd:     in.Dest(),
		rs:     in.Rs,
		rt:     in.Rt,
		op:     in.Op,
		imm:    in.Imm,
		target: in.Target,
		size:   uint8(in.Op.MemSize()),
		stop:   in.Stop,
		runEnd: in.Op.IsControl() || in.Stop != isa.StopNone,
	}
	// An inlined ALU or FP op writing $zero has no architectural effect
	// beyond retiring, so it decodes to a µ-nop.
	if u.rd == isa.RegZero && u.kind >= uAdd && u.kind <= uMovD {
		u.kind = uNop
	}
	return u
}

// ProgramImage returns the initial memory image for p — the data
// segment at isa.DataBase as an immutable copy-on-write image, so
// constructing a machine shares it instead of re-copying the segment
// (mem.NewMemoryFromImage). It is built on first use and lives on the
// program. The timing simulator seeds its backing store from the same
// image.
func ProgramImage(p *isa.Program) *mem.Image {
	return p.Image.Get(func() any {
		m := mem.NewMemory()
		m.WriteBytes(isa.DataBase, p.Data)
		return m.Image()
	}).(*mem.Image)
}

// decodedUops returns the µop stream for p, decoded on first use and
// kept on the program: every machine over it shares the stream, and it
// goes when the program does.
func decodedUops(p *isa.Program) []uop {
	return p.Uops.Get(func() any {
		us := make([]uop, len(p.Text))
		for i := range p.Text {
			us[i] = decodeInstr(&p.Text[i])
		}
		return us
	}).([]uop)
}
