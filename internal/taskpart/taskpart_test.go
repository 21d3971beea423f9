package taskpart

import (
	"testing"

	"multiscalar/internal/asm"
	"multiscalar/internal/core"
	"multiscalar/internal/interp"
	"multiscalar/internal/isa"
	"multiscalar/internal/mslint"
)

// assembleRaw builds a multiscalar-mode binary with no hand annotations.
func assembleRaw(t *testing.T, src string) *isa.Program {
	t.Helper()
	p, err := asm.Assemble(src, asm.ModeMultiscalar)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return p
}

const simpleLoop = `
main:
	li $s0, 10
	li $s1, 0
loop:
	add $s1, $s1, $s0
	addi $s0, $s0, -1
	bnez $s0, loop
done:
	move $a0, $s1
	li $v0, 10
	syscall
`

// exitBeforeLoop is simpleLoop laid out the way cmp and example are: the
// terminal block sits in front of the loop, so text — a task entry —
// follows the exit syscall.
const exitBeforeLoop = `
main:
	li $s0, 10
	li $s1, 0
	j loop
done:
	move $a0, $s1
	li $v0, 10
	syscall
loop:
	add $s1, $s1, $s0
	addi $s0, $s0, -1
	beqz $s0, done
	j loop
`

func TestPartitionSimpleLoop(t *testing.T) {
	p := assembleRaw(t, simpleLoop)
	part, err := Run(p, Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	loopAddr, _ := p.Symbol("loop")
	td := p.TaskAt(loopAddr)
	if td == nil {
		t.Fatal("no task at loop header")
	}
	// Loop task targets: itself and the loop exit.
	if len(td.Targets) != 2 {
		t.Fatalf("targets = %v", td.Targets)
	}
	if !td.HasTarget(loopAddr) {
		t.Errorf("loop task should target itself: %v", td.Targets)
	}
	exitAddr := loopAddr + 3*isa.InstrSize
	if !td.HasTarget(exitAddr) {
		t.Errorf("loop task should target exit 0x%x: %v", exitAddr, td.Targets)
	}
	// Create mask: s0 (live across iterations) and s1 (live at exit).
	if !td.Create.Has(isa.RegS0) || !td.Create.Has(isa.RegS0+1) {
		t.Errorf("create = %v", td.Create)
	}
	// The backward branch carries a stop bit: leaving either way exits
	// the task (taken -> next iteration task, not-taken -> exit task).
	bnez := p.InstrAt(exitAddr - isa.InstrSize)
	if bnez.Stop != isa.StopAlways {
		t.Errorf("bnez stop = %v", bnez.Stop)
	}
	// Forward bits on last updates of s0 and s1 in the loop body.
	add := p.InstrAt(loopAddr)
	addi := p.InstrAt(loopAddr + isa.InstrSize)
	if !add.Fwd {
		t.Errorf("add (last s1 update) should forward: %v", add)
	}
	if !addi.Fwd {
		t.Errorf("addi (last s0 update) should forward: %v", addi)
	}
	if len(part.Tasks) < 3 {
		t.Errorf("expected >=3 tasks (entry, loop, exit), got %d", len(part.Tasks))
	}
}

func TestDeadRegisterTrimming(t *testing.T) {
	// $t5 is written in the loop but never read after — it must not
	// appear in the create mask. ($t5 is scratch inside one iteration.)
	p := assembleRaw(t, `
main:
	li $s0, 10
	li $s1, 0
loop:
	add $t5, $s0, $s0
	add $s1, $s1, $t5
	addi $s0, $s0, -1
	bnez $s0, loop
	move $a0, $s1
	li $v0, 10
	syscall
`)
	if _, err := Run(p, Options{}); err != nil {
		t.Fatal(err)
	}
	loopAddr, _ := p.Symbol("loop")
	td := p.TaskAt(loopAddr)
	if td.Create.Has(isa.RegT0 + 5) {
		t.Errorf("dead $t5 in create mask %v", td.Create)
	}
	if !td.Create.Has(isa.RegS0) || !td.Create.Has(isa.RegS0+1) {
		t.Errorf("create = %v", td.Create)
	}
}

func TestFunctionBecomesTask(t *testing.T) {
	p := assembleRaw(t, `
main:
	li  $a0, 5
	jal work
	move $s0, $v0
	li  $v0, 10
	syscall
work:
	add $v0, $a0, $a0
	jr  $ra
`)
	part, err := Run(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	workAddr, _ := p.Symbol("work")
	workTask := p.TaskAt(workAddr)
	if workTask == nil {
		t.Fatal("no task for function")
	}
	if len(workTask.Targets) != 1 || workTask.Targets[0] != isa.TargetReturn {
		t.Errorf("work targets = %v", workTask.Targets)
	}
	// The caller task ends at the jal, pushing the continuation.
	entryTask := p.TaskAt(p.Entry)
	if entryTask == nil {
		t.Fatal("no entry task")
	}
	if !entryTask.HasTarget(workAddr) {
		t.Errorf("entry targets = %v", entryTask.Targets)
	}
	if entryTask.PushRA == 0 || entryTask.CallTarget != workAddr {
		t.Errorf("PushRA=0x%x CallTarget=0x%x", entryTask.PushRA, entryTask.CallTarget)
	}
	// Continuation task exists at PushRA.
	if p.TaskAt(entryTask.PushRA) == nil {
		t.Error("no continuation task")
	}
	// The caller's mask holds what the caller writes and a later task
	// reads. $v0 is the callee task's to create: charged to the caller as
	// well, every reader of $v0 would wait on a task that never sends it
	// before its flush.
	if want := isa.MaskOf(isa.RegA0, isa.RegRA); entryTask.Create != want {
		t.Errorf("entry create = %v, want %v", entryTask.Create, want)
	}
	if !workTask.Create.Has(isa.RegV0) {
		t.Errorf("work create = %v", workTask.Create)
	}
	// The jal carries a stop bit; the jr carries a stop bit.
	foundJalStop, foundJrStop := false, false
	for i := range p.Text {
		in := &p.Text[i]
		if in.Op == isa.OpJal && in.Stop == isa.StopAlways {
			foundJalStop = true
		}
		if in.Op == isa.OpJr && in.Stop == isa.StopAlways {
			foundJrStop = true
		}
	}
	if !foundJalStop || !foundJrStop {
		t.Errorf("stops: jal=%v jr=%v", foundJalStop, foundJrStop)
	}
	if len(part.Tasks) < 3 {
		t.Errorf("tasks = %d", len(part.Tasks))
	}
}

func TestSuppressedFunction(t *testing.T) {
	src := `
main:
	li  $a0, 5
	jal work
	move $s0, $v0
	li  $v0, 10
	syscall
work:
	add $v0, $a0, $a0
	jr  $ra
`
	p := assembleRaw(t, src)
	_, err := Run(p, Options{SuppressFuncs: []string{"work"}})
	if err != nil {
		t.Fatal(err)
	}
	workAddr, _ := p.Symbol("work")
	if p.TaskAt(workAddr) != nil {
		t.Error("suppressed function should not be a task")
	}
	// The jal must not stop; the suppressed jr must not stop.
	for i := range p.Text {
		in := &p.Text[i]
		if in.Op == isa.OpJal && in.Stop != isa.StopNone {
			t.Error("jal to suppressed fn has stop bit")
		}
		if in.Op == isa.OpJr && in.Stop != isa.StopNone {
			t.Error("suppressed jr has stop bit")
		}
	}
}

func TestNestedLoopTasks(t *testing.T) {
	p := assembleRaw(t, `
main:
	li $s0, 3
outer:
	li $s1, 4
	li $s2, 0
inner:
	add  $s2, $s2, $s1
	addi $s1, $s1, -1
	bnez $s1, inner
	addi $s0, $s0, -1
	bnez $s0, outer
	li $v0, 10
	syscall
`)
	part, err := Run(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	outerAddr, _ := p.Symbol("outer")
	innerAddr, _ := p.Symbol("inner")
	if p.TaskAt(outerAddr) == nil || p.TaskAt(innerAddr) == nil {
		t.Fatal("missing loop tasks")
	}
	inner := p.TaskAt(innerAddr)
	// Inner loop task targets: itself + the inner-exit continuation.
	if !inner.HasTarget(innerAddr) {
		t.Errorf("inner targets = %v", inner.Targets)
	}
	_ = part
}

func TestRejectsAnnotatedProgram(t *testing.T) {
	p := assembleRaw(t, `
main:
	li $t0, 1
	li $v0, 10
	syscall
	.task main targets=main
`)
	if _, err := Run(p, Options{}); err == nil {
		t.Error("expected error for pre-annotated program")
	}
}

func TestTerminalTaskHasNoTargets(t *testing.T) {
	// The exit task ends at the syscall with no successor, whether the
	// text ends there or goes on: nothing falls through an exit.
	for _, src := range []string{simpleLoop, exitBeforeLoop} {
		p := assembleRaw(t, src)
		if _, err := Run(p, Options{}); err != nil {
			t.Fatal(err)
		}
		doneAddr, _ := p.Symbol("done")
		exitTask := p.TaskAt(doneAddr)
		if exitTask == nil {
			t.Fatal("no exit task")
		}
		if len(exitTask.Targets) != 0 || !exitTask.Create.Empty() {
			t.Errorf("terminal task targets = %v, create = %v\n%s", exitTask.Targets, exitTask.Create, src)
		}
	}
}

func TestForwardBitNotOnEarlyWrite(t *testing.T) {
	// $s1 is written twice in the loop body; only the second write may
	// carry the forward bit.
	p := assembleRaw(t, `
main:
	li $s0, 10
	li $s1, 0
loop:
	add  $s1, $s1, $s0
	add  $s1, $s1, 1
	addi $s0, $s0, -1
	bnez $s0, loop
	move $a0, $s1
	li $v0, 10
	syscall
`)
	if _, err := Run(p, Options{}); err != nil {
		t.Fatal(err)
	}
	loopAddr, _ := p.Symbol("loop")
	first := p.InstrAt(loopAddr)
	second := p.InstrAt(loopAddr + isa.InstrSize)
	if first.Fwd {
		t.Error("early $s1 write has forward bit")
	}
	if !second.Fwd {
		t.Error("final $s1 write missing forward bit")
	}
}

func TestValidatesAfterPartition(t *testing.T) {
	p := assembleRaw(t, simpleLoop)
	if _, err := Run(p, Options{}); err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("partitioned program invalid: %v", err)
	}
}

// TestSplitsOversizedTask: a switch-like region with five distinct exits
// exceeds the 4-target descriptor limit; the partitioner must split it
// rather than fail.
func TestSplitsOversizedTask(t *testing.T) {
	p := assembleRaw(t, `
main:
	li $s0, 3
loop:
	addi $s0, $s0, -1
	beqz $s0, c0
	addi $t0, $s0, -1
	beqz $t0, c1
	addi $t0, $s0, -2
	beqz $t0, c2
	addi $t0, $s0, -3
	beqz $t0, c3
	j c4
c0:
	addi $s1, $s1, 1
	j join
c1:
	addi $s1, $s1, 2
	j join
c2:
	addi $s1, $s1, 3
	j join
c3:
	addi $s1, $s1, 4
	j join
c4:
	addi $s1, $s1, 5
join:
	bnez $s0, loop
	move $a0, $s1
	li $v0, 10
	syscall
`)
	part, err := Run(p, Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, ti := range part.Tasks {
		if len(ti.Desc.Targets) > isa.MaxTaskTargets {
			t.Errorf("task %s still has %d targets", ti.Desc.Name, len(ti.Desc.Targets))
		}
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestSplitsTaskWithManyTargets: a loop body that dispatches to five
// inner loops would be one task with six targets (five loop headers and
// the join). The partitioner splits it (splitRegion): the block after the
// first dispatch branch becomes a task of its own, every descriptor names
// at most four targets, the result is lint-clean, and it runs judged in
// lockstep with the functional machine at 4 and 8 units.
func TestSplitsTaskWithManyTargets(t *testing.T) {
	p := assembleRaw(t, `
main:
	li $s0, 5
loop:
	addi $s0, $s0, -1
	beqz $s0, c0
	addi $t0, $s0, -1
	beqz $t0, c1
	addi $t0, $s0, -2
	beqz $t0, c2
	addi $t0, $s0, -3
	beqz $t0, c3
c4:
	addi $s1, $s1, 5
	bnez $zero, c4
	j join
c0:
	addi $s1, $s1, 1
	bnez $zero, c0
	j join
c1:
	addi $s1, $s1, 2
	bnez $zero, c1
	j join
c2:
	addi $s1, $s1, 3
	bnez $zero, c2
	j join
c3:
	addi $s1, $s1, 4
	bnez $zero, c3
join:
	bnez $s0, loop
	move $a0, $s1
	li $v0, 1
	syscall
	li $v0, 10
	li $a0, 0
	syscall
`)
	part, err := Run(p, Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	loop, _ := p.Symbol("loop")
	if p.TaskAt(loop+2*isa.InstrSize) == nil {
		t.Error("the dispatch after loop's first branch is not a task of its own: nothing was split")
	}
	for _, ti := range part.Tasks {
		if len(ti.Desc.Targets) > isa.MaxTaskTargets {
			t.Errorf("task %s has %d targets", ti.Desc.Name, len(ti.Desc.Targets))
		}
	}
	if r := mslint.Lint(p, nil); len(r.Diags) != 0 {
		t.Errorf("the partition is not lint-clean:\n%s", r)
	}
	for _, units := range []int{4, 8} {
		m, err := core.NewMultiscalar(p, interp.NewSysEnv(), core.DefaultConfig(units, 1, false))
		if err != nil {
			t.Fatal(err)
		}
		m.Judge(interp.NewMachine(p, interp.NewSysEnv()), 1<<20)
		res, err := m.Run()
		if err != nil {
			t.Fatalf("%d units: %v", units, err)
		}
		if d := m.Divergence(); d != nil {
			t.Errorf("%d units: %v", units, d)
		}
		if res.Out != "15" {
			t.Errorf("%d units: output %q, want 15", units, res.Out)
		}
	}
}
