package interp

import (
	"math"
	"math/rand"
	"testing"

	"multiscalar/internal/isa"
)

// randValue draws a register value whose integer and FP halves both
// cover the edge cases (zero, sign boundaries, infinities, NaN).
func randValue(r *rand.Rand) Value {
	ints := []uint32{0, 1, 31, 32, 0x7fffffff, 0x80000000, 0xffffffff}
	fps := []float64{0, math.Copysign(0, -1), 1, -1, math.Inf(1), math.Inf(-1), math.NaN(), math.MaxFloat64}
	v := Value{I: r.Uint32(), F: r.NormFloat64() * 1e3}
	if r.Intn(4) == 0 {
		v.I = ints[r.Intn(len(ints))]
	}
	if r.Intn(4) == 0 {
		v.F = fps[r.Intn(len(fps))]
	}
	return v
}

func sameValue(a, b Value) bool {
	return a.I == b.I && math.Float64bits(a.F) == math.Float64bits(b.F)
}

// TestUopHandlersMatchExec ties the inlined µop handlers to the one
// statement of the semantics: for every opcode that decodes to a handler
// of its own, a machine stepped over a single instruction must end in the
// state Exec, EffAddr, LoadValue and StoreValue say it should — over
// random operands, with a $zero destination (the handlers that write
// Regs[rd] unguarded rely on decode demoting those to µ-nops) and with
// the destination aliasing both sources. Syscall is left out: its effect
// is the host environment's, not Exec's.
func TestUopHandlersMatchExec(t *testing.T) {
	const (
		pc     = isa.TextBase
		target = isa.TextBase + 2*isa.InstrSize
		rounds = 400 // per register assignment and immediate: 3 x 3 x 400 per opcode
	)
	r := rand.New(rand.NewSource(21))
	regs := [][3]isa.Reg{
		{isa.RegT0 + 1, isa.RegT0 + 2, isa.RegT0 + 3},
		{isa.RegZero, isa.RegT0 + 2, isa.RegT0 + 3},
		{isa.RegT0 + 2, isa.RegT0 + 2, isa.RegT0 + 2},
	}
	handled := 0
	for n := 0; n < 256; n++ {
		op := isa.Op(n)
		if !op.Valid() || opKinds[op] == uExec || op == isa.OpSyscall {
			continue
		}
		handled++
		for _, f := range regs {
			for _, imm := range []int32{0, -12, r.Int31()} {
				in := isa.Instr{Op: op, Rd: f[0], Rs: f[1], Rt: f[2], Imm: imm, Target: target}
				prog := &isa.Program{Entry: pc, Text: []isa.Instr{in, {}, {}}}
				m := NewMachine(prog, NewSysEnv())
				for i := 0; i < rounds; i++ {
					for k := 1; k < len(m.Regs); k++ {
						m.Regs[k] = randValue(r)
					}
					m.FCC = r.Intn(2) == 0
					m.PC = pc
					addr := isa.DataBase + 8*uint32(r.Intn(64))
					if op.IsMem() {
						m.Regs[in.Rs].I = addr - uint32(imm)
						m.Mem.WriteN(addr, 8, r.Uint64())
					}

					// The reference: sources read before anything is written.
					want, wantFCC, wantPC := m.Regs, m.FCC, pc+isa.InstrSize
					rs, rt := m.Regs[in.Rs], m.Regs[in.Rt]
					wantMem := m.Mem.ReadN(addr, 8)
					res, err := Exec(op, rs, rt, imm, m.FCC)
					if err != nil {
						t.Fatalf("%v: Exec: %v", &in, err)
					}
					switch {
					case op.IsMem() && op.WritesRd(): // a load
						res.Val = LoadValue(op, m.Mem.ReadN(EffAddr(rs, imm), op.MemSize()))
					case op.IsMem(): // a store
						keep := 64 - 8*uint(op.MemSize()) // big-endian: the store takes the window's top bytes
						wantMem = StoreValue(op, rt)<<keep | wantMem&(1<<keep-1)
					case op.IsJump():
						res.Val = IntVal(pc + isa.InstrSize) // the link value, where Rd is written
						wantPC = rs.I
						if op.HasTarget() {
							wantPC = target
						}
					case op.IsBranch() && res.Taken:
						wantPC = target
					}
					if d := in.Dest(); d != isa.RegZero {
						want[d] = res.Val
					}
					if res.SetFCC {
						wantFCC = res.FCC
					}

					if err := m.RunTo(m.ICount + 1); err != nil {
						t.Fatalf("%v: %v", &in, err)
					}
					for k := range want {
						if !sameValue(m.Regs[k], want[k]) {
							t.Fatalf("%v with rs=%+v rt=%+v: %v = %+v, want %+v", &in, rs, rt, isa.Reg(k), m.Regs[k], want[k])
						}
					}
					if m.FCC != wantFCC || m.PC != wantPC {
						t.Fatalf("%v with rs=%+v rt=%+v: FCC %v PC 0x%x, want %v 0x%x", &in, rs, rt, m.FCC, m.PC, wantFCC, wantPC)
					}
					if got := m.Mem.ReadN(addr, 8); got != wantMem {
						t.Fatalf("%v with rt=%+v: memory %016x, want %016x", &in, rt, got, wantMem)
					}
				}
			}
		}
	}
	if handled < 50 {
		t.Fatalf("only %d opcodes decode to their own handler", handled)
	}
}

// TestExecCoversUnhandledOps: an opcode opKinds does not list runs
// through Exec, so Exec must know it, and it must not be one of the
// operations Exec leaves to its caller (memory, jumps, syscall).
func TestExecCoversUnhandledOps(t *testing.T) {
	for n := 0; n < 256; n++ {
		op := isa.Op(n)
		if !op.Valid() || opKinds[op] != uExec {
			continue
		}
		if op.IsMem() || op.IsJump() || op == isa.OpSyscall {
			t.Errorf("%s needs a handler: Exec leaves it to the caller", op)
		}
		if _, err := Exec(op, IntVal(1), IntVal(1), 1, false); err != nil {
			t.Errorf("%s decodes to uExec: %v", op, err)
		}
	}
}
