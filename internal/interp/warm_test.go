package interp

import (
	"testing"

	"multiscalar/internal/asm"
	"multiscalar/internal/isa"
	"multiscalar/internal/workloads"
)

// runWarmer checks each run the machine's warming hooks deliver against
// the program text and records what it saw.
type runWarmer struct {
	t                      *testing.T
	p                      *isa.Program
	start                  uint32 // first instruction of the open run
	loads, stores, retires uint64
	stopOnly               uint64 // Retires at a stop bit on a non-control instruction
	runInstrs              uint64 // instructions in the runs Retire reported
}

// endsRun is the run contract's definition of a run end.
func endsRun(in *isa.Instr) bool { return in.Op.IsControl() || in.Stop != isa.StopNone }

func (w *runWarmer) Mem(addr uint32, store bool) {
	if store {
		w.stores++
	} else {
		w.loads++
	}
}

func (w *runWarmer) Retire(pc, next uint32) {
	w.retires++
	in := w.p.InstrAt(pc)
	if !endsRun(in) {
		w.t.Fatalf("Retire at 0x%x, which neither transfers control nor carries a stop condition", pc)
	}
	if !in.Op.IsControl() {
		w.stopOnly++
	}
	w.checkRun(w.start, pc)
	w.runInstrs += uint64((pc-w.start)/isa.InstrSize) + 1
	w.start = next
}

// checkRun fails the test if an instruction before end in the run from
// start ends a run: Retire should have reported it.
func (w *runWarmer) checkRun(start, end uint32) {
	for a := start; a < end; a += isa.InstrSize {
		if endsRun(w.p.InstrAt(a)) {
			w.t.Fatalf("run 0x%x..0x%x passes the run end at 0x%x without a Retire", start, end, a)
		}
	}
}

// fallThrough's first task ends on a non-control instruction, where the
// stop bit alone ends a run; no suite workload has such a task exit.
const fallThrough = `
main:
	li $s0, 5 !f
	li $s1, 0 !f !s
loop:
	add $s1, $s1, $s0 !f
	addi $s0, $s0, -1 !f
	bnez $s0, loop !s
end:
	move $a0, $s1
	li $v0, 1
	syscall
` + exitSeq + `
	.task main targets=loop create=$s0,$s1
	.task loop targets=loop,end create=$s0,$s1
	.task end entry=end
`

// TestWarmerHooks: the Warm observer sees one Retire exactly at each
// retired control or stop-bit instruction and one Mem per load/store;
// the runs Retire reports and the open run left at exit add up to
// ICount; and attaching it changes nothing about the run.
func TestWarmerHooks(t *testing.T) {
	type program struct {
		name     string
		p        *isa.Program
		stopOnly bool // a task exit falls through
	}
	var progs []program
	w := workloads.Get("example")
	for _, mode := range []asm.Mode{asm.ModeScalar, asm.ModeMultiscalar} {
		p, err := w.Build(mode, w.TestScale)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, program{"example " + mode.String(), p, false})
	}
	p, err := asm.Assemble(fallThrough, asm.ModeMultiscalar)
	if err != nil {
		t.Fatal(err)
	}
	progs = append(progs, program{"fall-through task exit", p, true})

	for _, tc := range progs {
		plain := NewMachine(tc.p, NewSysEnv())
		if err := plain.Run(1 << 30); err != nil {
			t.Fatal(err)
		}

		m := NewMachine(tc.p, NewSysEnv())
		rw := &runWarmer{t: t, p: tc.p, start: m.PC}
		m.Warm = rw
		if err := m.Run(1 << 30); err != nil {
			t.Fatal(err)
		}

		if m.ICount != plain.ICount || m.Env.Out.String() != plain.Env.Out.String() || m.TaskExits != plain.TaskExits {
			t.Errorf("%s: warmer perturbed the run: %d instrs vs %d", tc.name, m.ICount, plain.ICount)
		}
		rw.checkRun(rw.start, m.PC)
		if open := uint64((m.PC - rw.start) / isa.InstrSize); rw.runInstrs+open != m.ICount {
			t.Errorf("%s: runs hold %d instructions and the open run %d, machine retired %d",
				tc.name, rw.runInstrs, open, m.ICount)
		}
		if rw.retires < m.BranchCount || rw.retires >= m.ICount {
			t.Errorf("%s: %d Retire callbacks for %d branches in %d instructions", tc.name, rw.retires, m.BranchCount, m.ICount)
		}
		if tc.stopOnly != (rw.stopOnly > 0) {
			t.Errorf("%s: %d Retire callbacks at stop bits on non-control instructions", tc.name, rw.stopOnly)
		}
		if rw.loads != m.LoadCount || rw.stores != m.StoreCount {
			t.Errorf("%s: warmer saw %d loads / %d stores, machine counted %d / %d",
				tc.name, rw.loads, rw.stores, m.LoadCount, m.StoreCount)
		}
	}
}
