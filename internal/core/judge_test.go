package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"multiscalar/internal/asm"
	"multiscalar/internal/interp"
	"multiscalar/internal/isa"
	"multiscalar/internal/workloads"
)

// judgeBound is the functional machine's instruction bound in these
// tests: every program here exits far below it.
const judgeBound = 1 << 30

// runJudged runs prog under cfg judged by a functional machine over co
// (prog itself, or a sibling that plants a divergence). It fails the
// test on a run error and returns the result and the first divergence.
func runJudged(t *testing.T, prog, co *isa.Program, cfg Config) (*Result, *DivergenceError) {
	t.Helper()
	m, err := NewMultiscalar(prog, interp.NewSysEnv(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Judge(interp.NewMachine(co, interp.NewSysEnv()), judgeBound)
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res, m.Divergence()
}

// TestLockstepSweep: every workload agrees with the functional machine
// at every task retire and at its end, on 1, 4 and 8 units, 1- and 2-way,
// in order and out of order.
func TestLockstepSweep(t *testing.T) {
	for _, name := range workloads.Names() {
		w := workloads.Get(name)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			p, err := w.Build(asm.ModeMultiscalar, w.TestScale)
			if err != nil {
				t.Fatal(err)
			}
			for _, units := range []int{1, 4, 8} {
				for _, width := range []int{1, 2} {
					for _, ooo := range []bool{false, true} {
						res, d := runJudged(t, p, p, DefaultConfig(units, width, ooo))
						if d != nil {
							t.Errorf("%du %d-way ooo=%v: %v", units, width, ooo, d)
						}
						if res.TasksRetired < 2 {
							t.Errorf("%du %d-way ooo=%v: %d tasks retired: nothing judged between them",
								units, width, ooo, res.TasksRetired)
						}
					}
				}
			}
		})
	}
}

// plantSrc is the program the planted divergences run: a loop whose
// tasks each store to buf and forward $s0, and an end task that prints a
// character and exits. The %s verbs are where a sibling differs: main's
// trip count, the loop's branch, the printed character, the end's extra
// instruction and the exit code.
const plantSrc = `
	.data
buf:	.word 0, 0
	.text
main:
	li   $s0, %s
	j    loop !s
loop:
	la   $t0, buf
	sw   $s0, 0($t0)
	addi $s0, $s0, -1 !f
	%s   $s0, loop !s
end:
	li   $a0, %s
	li   $v0, 11
	syscall%s
	li   $v0, 10
	li   $a0, %s
	syscall
	.task main targets=loop create=$s0
	.task loop targets=loop,end create=$s0
	.task end entry=end
`

// plant assembles plantSrc; each argument left "" takes the healthy value.
func plant(t *testing.T, trips, branch, char, extra, exit string) *isa.Program {
	t.Helper()
	or := func(s, def string) string {
		if s == "" {
			return def
		}
		return s
	}
	src := fmt.Sprintf(plantSrc, or(trips, "8"), or(branch, "bnez"), or(char, "65"), extra, or(exit, "0"))
	p, err := asm.Assemble(src, asm.ModeMultiscalar)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestJudgePlantedDivergences: each planted difference between the
// timing machine and the sequential run comes back as the
// DivergenceError that names it — the task, its entry, what differed,
// where, and both values — while the run itself finishes.
func TestJudgePlantedDivergences(t *testing.T) {
	healthy := plant(t, "", "", "", "", "")
	buf, _ := healthy.Symbol("buf")
	loop, _ := healthy.Symbol("loop")
	end, _ := healthy.Symbol("end")
	cfg := DefaultConfig(4, 1, false)
	hres, d := runJudged(t, healthy, healthy, cfg)
	if d != nil {
		t.Fatalf("the healthy program diverges: %v", d)
	}
	mid := hres.Cycles / 2 // a cycle with loop tasks on both sides

	for _, c := range []struct {
		name string
		co   *isa.Program // the functional machine's program
		// before runs on the built machine and its functional machine
		// before Run: a plant of its own, or nothing.
		before func(m *Multiscalar, co *interp.Machine)
		want   DivergenceError // Retire and Cycle are not compared
	}{
		{"dead register", healthy, func(m *Multiscalar, _ *interp.Machine) {
			// $t9 is written by no task: only the plant changes it.
			m.ScheduleCheckpoint(mid, func() error { m.archRegs[isa.RegT9] = interp.IntVal(7); return nil })
		}, DivergenceError{Task: "loop", Entry: loop, What: DivRegister, Where: "$t9", Timing: "0x7", Functional: "0x0"}},
		{"store byte", healthy, func(_ *Multiscalar, co *interp.Machine) {
			// buf+5 shares the stored word's chunk, and nothing stores it.
			co.Mem.SetByte(buf+5, 0x5a)
		}, DivergenceError{Task: "loop", Entry: loop, What: DivMemory, Where: fmt.Sprintf("0x%x", buf+5), Timing: "0x00", Functional: "0x5a"}},
		{"next PC", plant(t, "", "beqz", "", "", ""), nil,
			DivergenceError{Task: "loop", Entry: loop, What: DivNextPC, Timing: fmt.Sprintf("0x%x", loop), Functional: fmt.Sprintf("0x%x", end)}},
		{"output byte", plant(t, "", "", "66", "", ""), nil,
			DivergenceError{Task: "end", Entry: end, What: DivOutput, Where: "byte 0", Timing: "'A'", Functional: "'B'"}},
		{"exit code", plant(t, "", "", "", "", "3"), nil,
			DivergenceError{Task: "end", Entry: end, What: DivExitCode, Timing: "0", Functional: "3"}},
		{"committed count", plant(t, "", "", "", "\n\tnop", ""), nil,
			DivergenceError{Task: "end", Entry: end, What: DivCommitted,
				Timing: fmt.Sprint(hres.Committed), Functional: fmt.Sprint(hres.Committed + 1)}},
	} {
		t.Run(c.name, func(t *testing.T) {
			m, err := NewMultiscalar(healthy, interp.NewSysEnv(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			co := interp.NewMachine(c.co, interp.NewSysEnv())
			if c.before != nil {
				c.before(m, co)
			}
			m.Judge(co, judgeBound)
			res, err := m.Run()
			if err != nil {
				t.Fatal(err)
			}
			if res.Out != "A" || res.ExitCode != 0 {
				t.Errorf("the judged run did not finish as the program does: %q, exit %d", res.Out, res.ExitCode)
			}
			d := m.Divergence()
			if d == nil {
				t.Fatal("no divergence")
			}
			var err2 error = d
			if !errors.As(err2, new(*DivergenceError)) {
				t.Fatal("a divergence is not a *DivergenceError")
			}
			got := *d
			got.Retire, got.Cycle = 0, 0
			if got != c.want {
				t.Errorf("divergence %+v\nwant       %+v", got, c.want)
			}
			if d.Cycle == 0 || d.Cycle >= res.Cycles || d.Retire >= res.TasksRetired {
				t.Errorf("retire %d at cycle %d: outside the run's %d retires and %d cycles", d.Retire, d.Cycle, res.TasksRetired, res.Cycles)
			}
			if c.name == "dead register" {
				want := fmt.Sprintf("core: task loop (entry 0x%x, retire %d, cycle %d): register $t9 is 0x7, the functional machine's is 0x0",
					loop, d.Retire, d.Cycle)
				if d.Error() != want {
					t.Errorf("message %q\nwant    %q", d.Error(), want)
				}
			}
		})
	}
}

// fccSrc compares in one task and branches on the flag first thing in
// the next (lint error MS016, so it is built with the gate off): the flag
// does not cross a task boundary on the machine, so its branch goes the
// other way from the sequential run's.
const fccSrc = `
	.data
x:	.double 1.0, 2.0
	.text
main:
	la     $t0, x
	l.d    $f0, 0($t0)
	l.d    $f2, 8($t0)
	c.lt.d $f0, $f2
	j      t !s
t:
	bc1t   yes !s
no:
	li     $a0, 0
	li     $v0, 1
	syscall` + exitSeq + `
yes:
	li     $a0, 1
	li     $v0, 1
	syscall` + exitSeq + `
	.task main targets=t
	.task t targets=yes,no
	.task no
	.task yes
`

// TestJudgeNamesFCCAcrossTasks: the judge needs nothing specific to the
// FP condition flag. The flag's only consumer is a branch, so a flag the
// machine does not carry into task t shows as t's next PC.
func TestJudgeNamesFCCAcrossTasks(t *testing.T) {
	if _, err := asm.Assemble(fccSrc, asm.ModeMultiscalar); err == nil || !strings.Contains(err.Error(), "MS016") {
		t.Fatalf("the lint gate passed fccSrc: %v", err)
	}
	res, err := asm.AssembleOpts(fccSrc, asm.Options{Mode: asm.ModeMultiscalar, NoLint: true})
	if err != nil {
		t.Fatal(err)
	}
	p := res.Prog
	entry, _ := p.Symbol("t")
	no, _ := p.Symbol("no")
	yes, _ := p.Symbol("yes")
	for _, units := range []int{1, 4} {
		_, d := runJudged(t, p, p, DefaultConfig(units, 1, false))
		want := DivergenceError{Task: "t", Entry: entry, Retire: 1, What: DivNextPC,
			Timing: fmt.Sprintf("0x%x", no), Functional: fmt.Sprintf("0x%x", yes)}
		if d == nil {
			t.Fatalf("%d units: no divergence", units)
		}
		got := *d
		if got.Cycle = 0; got != want {
			t.Errorf("%d units: divergence %+v\nwant %+v", units, got, want)
		}
	}
}

// TestScalarWarmStartSeedsFCC: a warm start of the scalar machine
// between an FP compare and its branch seeds the captured flag into the
// one task (startFCC, pu.Unit.SeedFCC), so the run from there finishes
// as the sequential run does.
func TestScalarWarmStartSeedsFCC(t *testing.T) {
	p, err := asm.Assemble(fccSrc, asm.ModeScalar)
	if err != nil {
		t.Fatal(err)
	}
	at, _ := p.Symbol("t") // the bc1t
	om, oenv := oracle(t, p)

	cfg := ScalarConfig(1, false)
	co := interp.NewMachine(p, interp.NewSysEnv())
	for co.PC != at {
		if err := co.RunTo(co.ICount + 1); err != nil {
			t.Fatal(err)
		}
	}
	if !co.FCC {
		t.Fatal("the compare left the flag clear: nothing to seed")
	}
	ws := NewWarmState(p, cfg).Capture(co, co.PC, co.ICount, nil)
	m := newScalarMachine(t, p, cfg)
	if err := m.InjectWarm(ws); err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Out != oenv.Out.String() || res.ExitCode != oenv.ExitCode || ws.ICount+res.Committed != om.ICount {
		t.Errorf("warm-started run: %q, exit %d, %d+%d instructions; the sequential run: %q, exit %d, %d",
			res.Out, res.ExitCode, ws.ICount, res.Committed, oenv.Out.String(), oenv.ExitCode, om.ICount)
	}
}

// TestJudgeAfterRestore: a machine restored mid-run is judged from its
// first retire on, the functional machine catching up to the restored
// committed count first, and one restored finished still has its end
// judged. A machine warm-started from a capture at a mid-run task
// boundary is judged by a functional machine started from the same
// capture. The divergence a sibling plants after the capture comes back
// every way.
func TestJudgeAfterRestore(t *testing.T) {
	p := plant(t, "", "", "", "", "")
	cfg := DefaultConfig(4, 1, false)
	m, err := NewMultiscalar(p, interp.NewSysEnv(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var snap []byte
	m.ScheduleCheckpoint(60, func() error { snap, err = m.Save(); return err })
	res, err := m.Run()
	if err != nil || snap == nil {
		t.Fatalf("capture: %v", err)
	}
	fin, err := m.Save()
	if err != nil {
		t.Fatal(err)
	}
	sibling := plant(t, "", "", "66", "", "")
	for _, c := range []struct {
		snap []byte
		co   *isa.Program
		want Divergence
	}{{snap, p, ""}, {snap, sibling, DivOutput}, {fin, p, ""}, {fin, sibling, DivOutput}} {
		r, err := NewMultiscalar(p, interp.NewSysEnv(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Restore(c.snap); err != nil {
			t.Fatal(err)
		}
		if r.committed == 0 {
			t.Fatal("captured before the first retire: nothing to catch up to")
		}
		r.Judge(interp.NewMachine(c.co, interp.NewSysEnv()), judgeBound)
		got, err := r.Run()
		if err != nil {
			t.Fatal(err)
		}
		var what Divergence
		if d := r.Divergence(); d != nil {
			what = d.What
		}
		if what != c.want || got.Cycles != res.Cycles {
			t.Errorf("restored run: divergence %q after %d cycles, want %q after %d", what, got.Cycles, c.want, res.Cycles)
		}
	}

	f := interp.NewMachine(p, interp.NewSysEnv())
	for f.TaskExits < 3 {
		if err := f.RunTo(f.ICount + 1); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		co   *isa.Program
		want Divergence
	}{{p, ""}, {sibling, DivOutput}} {
		ws := NewWarmState(p, cfg).Capture(f, f.PC, f.ICount, nil)
		co := interp.NewMachine(c.co, ws.Env.Clone(nil))
		co.PC, co.Regs, co.FCC, co.Mem = ws.PC, ws.Regs, ws.FCC, ws.Mem.Clone()
		r, err := NewMultiscalar(p, ws.Env, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.InjectWarm(ws); err != nil {
			t.Fatal(err)
		}
		r.Judge(co, judgeBound)
		got, err := r.Run()
		if err != nil {
			t.Fatal(err)
		}
		var what Divergence
		if d := r.Divergence(); d != nil {
			what = d.What
		}
		if what != c.want || got.TasksRetired < 2 {
			t.Errorf("warm-started run: divergence %q after %d task retires, want %q after at least 2", what, got.TasksRetired, c.want)
		}
	}
}
