package interp

import (
	"fmt"
	"math/bits"

	"multiscalar/internal/isa"
	"multiscalar/internal/mem"
)

// Warmer observes the retired instruction stream during functional
// execution so simulation structures (caches, predictors, the task
// sequencer's history) can be kept warm without running the timing
// machine. The stream is delivered as straight-line runs: a run ends at
// a control instruction or at one carrying a stop condition, which are
// the only places the warm state changes other than by a memory access
// or by entering a new cache block. Both callbacks are on the hot path:
// implementations must be cheap and must not touch machine state. A nil
// Warm field costs one predictable branch per run end and per access.
type Warmer interface {
	// Mem is called for every load and store with the effective address.
	Mem(addr uint32, store bool)
	// Retire is called after the instruction that ends a run, with its
	// PC and the PC of the next instruction (control flow already
	// resolved). The run is every instruction from the previous call's
	// next (or the machine's PC when the Warmer was attached) up to pc,
	// in address order. Instructions retired since the last call, up to
	// PC-InstrSize, are the open run, which no call reports.
	Retire(pc, next uint32)
}

// Machine is the functional simulator state.
type Machine struct {
	Prog *isa.Program
	Mem  *mem.Memory
	Regs [isa.NumRegs]Value
	FCC  bool
	PC   uint32
	Env  *SysEnv

	// Warm, when non-nil, observes retired instructions (see Warmer).
	Warm Warmer

	// ICount is the dynamic instruction count — the quantity Table 2
	// reports.
	ICount uint64
	// Class counts broken out for reporting.
	LoadCount, StoreCount, BranchCount uint64
	// TaskExits counts retired instructions whose stop condition held:
	// the task boundaries of the dynamic stream, which size the sampled
	// simulator's warm-up (internal/sample).
	TaskExits uint64

	// uops is the predecoded form of Prog.Text (see uop.go). It is
	// derived state: never serialized, rebuilt on demand.
	uops []uop
}

// NewMachine loads a program image: data segment copied into memory,
// $sp at the stack top, PC at the entry point.
func NewMachine(p *isa.Program, env *SysEnv) *Machine {
	m := &Machine{
		Prog: p,
		Mem:  mem.NewMemoryFromImage(ProgramImage(p)),
		PC:   p.Entry,
		Env:  env,
	}
	m.Regs[isa.RegSP] = IntVal(isa.StackTop)
	m.Regs[isa.RegGP] = IntVal(isa.DataBase)
	return m
}

// steps executes at least one instruction, then on until the program
// has exited or ICount has reached limit. The loop lives here rather
// than in Run so that a run pays for one call, not one per instruction.
//
// Dispatch runs over the predecoded µop stream (uop.go): one dense
// switch on the handler index, with the destination register already
// resolved, instead of re-classifying the architectural instruction
// each time.
func (m *Machine) steps(limit uint64) error {
	if m.uops == nil {
		m.uops = decodedUops(m.Prog)
	}
	for {
		// Rotating the text offset right by two turns a misaligned or
		// below-text PC into an index past any program, so one unsigned
		// compare rejects both as well as a PC past the text.
		idx := bits.RotateLeft32(m.PC-isa.TextBase, -2)
		if idx >= uint32(len(m.uops)) {
			return fmt.Errorf("interp: PC 0x%x outside text", m.PC)
		}
		u := &m.uops[idx]
		nextPC := m.PC + isa.InstrSize

		switch u.kind {
		case uNop:
		case uSyscall:
			ret, writes, err := m.Env.Call(m.Mem,
				m.Regs[isa.RegV0].I, m.Regs[isa.RegA0].I,
				m.Regs[isa.RegA1].I, m.Regs[isa.RegA2].I, m.Regs[isa.RegA3].I)
			if err != nil {
				return err
			}
			if writes {
				m.Regs[isa.RegV0] = IntVal(ret)
			}
			if m.Env.Exited {
				limit = 0 // only a syscall exits: stop after this instruction
			}

		case uLw:
			addr := m.Regs[u.rs].I + uint32(u.imm)
			if addr&3 != 0 {
				return fmt.Errorf("interp: unaligned %s of 0x%x at PC 0x%x", u.op, addr, m.PC)
			}
			v, ok := m.Mem.ReadWordHit(addr)
			if !ok {
				v = uint32(m.Mem.ReadN(addr, 4))
			}
			if u.rd != isa.RegZero {
				m.Regs[u.rd] = Value{I: v}
			}
			if m.Warm != nil {
				m.Warm.Mem(addr, false)
			}
			m.LoadCount++
		case uLoad:
			addr := m.Regs[u.rs].I + uint32(u.imm)
			if addr%uint32(u.size) != 0 {
				return fmt.Errorf("interp: unaligned %s of 0x%x at PC 0x%x", u.op, addr, m.PC)
			}
			var raw uint64
			if b, ok := m.Mem.ByteHit(addr); ok && u.size == 1 {
				raw = uint64(b)
			} else {
				raw = m.Mem.ReadN(addr, int(u.size))
			}
			if u.rd != isa.RegZero {
				m.Regs[u.rd] = LoadValue(u.op, raw)
			}
			if m.Warm != nil {
				m.Warm.Mem(addr, false)
			}
			m.LoadCount++
		case uSw:
			addr := m.Regs[u.rs].I + uint32(u.imm)
			if addr&3 != 0 {
				return fmt.Errorf("interp: unaligned %s of 0x%x at PC 0x%x", u.op, addr, m.PC)
			}
			if v := m.Regs[u.rt].I; !m.Mem.WriteWordHit(addr, v) {
				m.Mem.WriteN(addr, 4, uint64(v))
			}
			if m.Warm != nil {
				m.Warm.Mem(addr, true)
			}
			m.StoreCount++
		case uStore:
			addr := m.Regs[u.rs].I + uint32(u.imm)
			if addr%uint32(u.size) != 0 {
				return fmt.Errorf("interp: unaligned %s of 0x%x at PC 0x%x", u.op, addr, m.PC)
			}
			m.Mem.WriteN(addr, int(u.size), StoreValue(u.op, m.Regs[u.rt]))
			if m.Warm != nil {
				m.Warm.Mem(addr, true)
			}
			m.StoreCount++

		case uJ:
			nextPC = u.target
			m.BranchCount++
		case uJal:
			if u.rd != isa.RegZero {
				m.Regs[u.rd] = IntVal(m.PC + isa.InstrSize)
			}
			nextPC = u.target
			m.BranchCount++
		case uJr:
			nextPC = m.Regs[u.rs].I
			m.BranchCount++
		case uJalr:
			target := m.Regs[u.rs].I
			if u.rd != isa.RegZero {
				m.Regs[u.rd] = IntVal(m.PC + isa.InstrSize)
			}
			nextPC = target
			m.BranchCount++

		case uBeq:
			if m.Regs[u.rs].I == m.Regs[u.rt].I {
				nextPC = u.target
			}
			m.BranchCount++
		case uBne:
			if m.Regs[u.rs].I != m.Regs[u.rt].I {
				nextPC = u.target
			}
			m.BranchCount++
		case uBlez:
			if int32(m.Regs[u.rs].I) <= 0 {
				nextPC = u.target
			}
			m.BranchCount++
		case uBgtz:
			if int32(m.Regs[u.rs].I) > 0 {
				nextPC = u.target
			}
			m.BranchCount++
		case uBltz:
			if int32(m.Regs[u.rs].I) < 0 {
				nextPC = u.target
			}
			m.BranchCount++
		case uBgez:
			if int32(m.Regs[u.rs].I) >= 0 {
				nextPC = u.target
			}
			m.BranchCount++

		case uAdd:
			m.Regs[u.rd] = Value{I: m.Regs[u.rs].I + m.Regs[u.rt].I}
		case uAddi:
			m.Regs[u.rd] = Value{I: m.Regs[u.rs].I + uint32(u.imm)}
		case uSub:
			m.Regs[u.rd] = Value{I: m.Regs[u.rs].I - m.Regs[u.rt].I}
		case uMul:
			m.Regs[u.rd] = Value{I: uint32(int32(m.Regs[u.rs].I) * int32(m.Regs[u.rt].I))}
		case uAnd:
			m.Regs[u.rd] = Value{I: m.Regs[u.rs].I & m.Regs[u.rt].I}
		case uAndi:
			m.Regs[u.rd] = Value{I: m.Regs[u.rs].I & uint32(u.imm)}
		case uOr:
			m.Regs[u.rd] = Value{I: m.Regs[u.rs].I | m.Regs[u.rt].I}
		case uOri:
			m.Regs[u.rd] = Value{I: m.Regs[u.rs].I | uint32(u.imm)}
		case uXor:
			m.Regs[u.rd] = Value{I: m.Regs[u.rs].I ^ m.Regs[u.rt].I}
		case uXori:
			m.Regs[u.rd] = Value{I: m.Regs[u.rs].I ^ uint32(u.imm)}
		case uNor:
			m.Regs[u.rd] = Value{I: ^(m.Regs[u.rs].I | m.Regs[u.rt].I)}
		case uSll:
			m.Regs[u.rd] = Value{I: m.Regs[u.rs].I << (uint32(u.imm) & 31)}
		case uSrl:
			m.Regs[u.rd] = Value{I: m.Regs[u.rs].I >> (uint32(u.imm) & 31)}
		case uSra:
			m.Regs[u.rd] = Value{I: uint32(int32(m.Regs[u.rs].I) >> (uint32(u.imm) & 31))}
		case uSllv:
			m.Regs[u.rd] = Value{I: m.Regs[u.rs].I << (m.Regs[u.rt].I & 31)}
		case uSrlv:
			m.Regs[u.rd] = Value{I: m.Regs[u.rs].I >> (m.Regs[u.rt].I & 31)}
		case uSrav:
			m.Regs[u.rd] = Value{I: uint32(int32(m.Regs[u.rs].I) >> (m.Regs[u.rt].I & 31))}
		case uSlt:
			var v uint32
			if int32(m.Regs[u.rs].I) < int32(m.Regs[u.rt].I) {
				v = 1
			}
			m.Regs[u.rd] = Value{I: v}
		case uSltu:
			var v uint32
			if m.Regs[u.rs].I < m.Regs[u.rt].I {
				v = 1
			}
			m.Regs[u.rd] = Value{I: v}
		case uSlti:
			var v uint32
			if int32(m.Regs[u.rs].I) < u.imm {
				v = 1
			}
			m.Regs[u.rd] = Value{I: v}
		case uSltiu:
			var v uint32
			if m.Regs[u.rs].I < uint32(u.imm) {
				v = 1
			}
			m.Regs[u.rd] = Value{I: v}
		case uLui:
			m.Regs[u.rd] = Value{I: uint32(u.imm) << 16}

		case uAddD:
			m.Regs[u.rd] = Value{F: m.Regs[u.rs].F + m.Regs[u.rt].F}
		case uSubD:
			m.Regs[u.rd] = Value{F: m.Regs[u.rs].F - m.Regs[u.rt].F}
		case uMulD:
			m.Regs[u.rd] = Value{F: m.Regs[u.rs].F * m.Regs[u.rt].F}
		case uDivD:
			m.Regs[u.rd] = Value{F: m.Regs[u.rs].F / m.Regs[u.rt].F}
		case uMovD:
			m.Regs[u.rd] = Value{F: m.Regs[u.rs].F}
		case uCEqD:
			m.FCC = m.Regs[u.rs].F == m.Regs[u.rt].F
		case uCLtD:
			m.FCC = m.Regs[u.rs].F < m.Regs[u.rt].F
		case uCLeD:
			m.FCC = m.Regs[u.rs].F <= m.Regs[u.rt].F
		case uBc1t:
			if m.FCC {
				nextPC = u.target
			}
			m.BranchCount++
		case uBc1f:
			if !m.FCC {
				nextPC = u.target
			}
			m.BranchCount++

		default: // uExec
			res, err := Exec(u.op, m.Regs[u.rs], m.Regs[u.rt], u.imm, m.FCC)
			if err != nil {
				return fmt.Errorf("%w at PC 0x%x", err, m.PC)
			}
			if u.op.IsBranch() {
				if res.Taken {
					nextPC = u.target
				}
				m.BranchCount++
			} else if u.rd != isa.RegZero {
				m.Regs[u.rd] = res.Val
			}
			if res.SetFCC {
				m.FCC = res.FCC
			}
		}

		if u.runEnd {
			if u.stop != isa.StopNone && u.stop.Holds(nextPC != m.PC+isa.InstrSize) {
				m.TaskExits++
			}
			if m.Warm != nil {
				m.Warm.Retire(m.PC, nextPC)
			}
		}
		m.ICount++
		m.PC = nextPC
		if m.ICount >= limit {
			return nil
		}
	}
}

// Run executes until the program exits or maxInstrs instructions have
// retired (0 means no limit is a mistake — pass an explicit bound).
func (m *Machine) Run(maxInstrs uint64) error {
	if err := m.RunTo(maxInstrs); err != nil || m.Env.Exited {
		return err
	}
	return fmt.Errorf("interp: exceeded %d instructions without exiting", maxInstrs)
}

// RunTo executes until the program exits or ICount reaches n, whichever
// comes first. Unlike Run, stopping at n is not an error: it is how a
// caller stops at an exact instruction count.
func (m *Machine) RunTo(n uint64) error {
	for !m.Env.Exited && m.ICount < n {
		if err := m.steps(n); err != nil {
			return err
		}
	}
	return nil
}
