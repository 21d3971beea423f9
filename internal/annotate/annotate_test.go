// Tests for the annotation optimizer: unit cases on hand-built programs
// (mask tightening, release insertion, skip behavior), a certification
// pass holding every bundled workload's rewrite to the functional oracle
// and the lint gate, and the headline property — the tightened extras
// place measurably fewer values on the forwarding ring.
package annotate_test

import (
	"strings"
	"testing"

	"multiscalar/internal/annotate"
	"multiscalar/internal/asm"
	"multiscalar/internal/core"
	"multiscalar/internal/interp"
	"multiscalar/internal/isa"
	"multiscalar/internal/mslint"
	"multiscalar/internal/workloads"
)

// runInterp executes a program on the functional oracle.
func runInterp(t *testing.T, p *isa.Program) (string, int32, uint64) {
	t.Helper()
	env := interp.NewSysEnv()
	m := interp.NewMachine(p, env)
	if err := m.Run(100_000_000); err != nil {
		t.Fatalf("interp: %v", err)
	}
	return env.Out.String(), env.ExitCode, m.ICount
}

// runCore executes a program on the timing simulator, with every
// forwarded value checked against the task's final one, and returns the
// result after checking it against the oracle reference.
func runCore(t *testing.T, p *isa.Program, units int, wantOut string, wantInstrs uint64) *core.Result {
	t.Helper()
	c := core.DefaultConfig(units, 1, false)
	c.CheckForwards = true
	m, err := core.NewMultiscalar(p, interp.NewSysEnv(), c)
	if err != nil {
		t.Fatalf("core: %v", err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatalf("core run on %d units: %v", units, err)
	}
	if res.Out != wantOut || res.Committed != wantInstrs {
		t.Fatalf("%d units committed %d instructions with output %q, oracle %d with %q",
			units, res.Committed, res.Out, wantInstrs, wantOut)
	}
	return res
}

// returnSrc is a caller loop of six iterations around a function task
// that returns its result in $v0 and leaves a second value in $t5, which
// the continuation adds in as well: 615 on the oracle. FN's mask names
// both, and both are needed: nothing in the calling convention keeps $t5
// live after a return, but CONT reads it.
const returnSrc = `
main:
	li   $s0, 6 !f
	li   $s1, 0 !f
	j    CALL !s
CALL:
	move $a0, $s0 !f
	jal  FN !s !f
CONT:
	add  $s1, $s1, $v0
	add  $s1, $s1, $t5 !f
	addi $s0, $s0, -1 !f
	bnez $s0, CALL !s
DONE:
	move $a0, $s1
	li   $v0, 1
	syscall
	li   $v0, 10
	li   $a0, 0
	syscall
FN:
	sll  $t0, $a0, 3
	sll  $t1, $a0, 1
	add  $t0, $t0, $t1
	addi $v0, $t0, 50 !f
	sll  $t5, $a0, 2
	add  $t5, $t5, $a0 !f
	jr   $ra !s
.task main targets=CALL create=$s0,$s1
.task CALL targets=FN pushra=CONT call=FN create=$a0,$ra
.task FN targets=ret create=$v0,$t5
.task CONT targets=CALL,DONE create=$s0,$s1
.task DONE
`

// TestKeepsRegisterReadAfterReturn: a register the callee leaves for the
// continuation stays in the callee's mask, and the optimized binary still
// computes the oracle's answer on 4 and 8 units. The interpreter ignores
// annotations, so only the timing machine can tell.
func TestKeepsRegisterReadAfterReturn(t *testing.T) {
	res, err := asm.AssembleOpts(returnSrc, asm.Options{Mode: asm.ModeMultiscalar})
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	opt, plan := annotate.Optimize(res.Prog)
	for _, tp := range plan.Tasks {
		if tp.TD.Name == "FN" && !tp.NewCreate.Has(isa.RegT0+5) {
			t.Errorf("FN's $t5 dropped, plan:\n%s", plan)
		}
	}
	wantOut, _, wantInstrs := runInterp(t, res.Prog)
	if wantOut != "615" {
		t.Fatalf("oracle printed %q", wantOut)
	}
	for _, units := range []int{4, 8} {
		runCore(t, opt, units, wantOut, wantInstrs)
	}
}

// TestPassThroughDrop: a create-mask register the task never writes
// (MS017) is dropped, and the .task directive line is rewritten.
func TestPassThroughDrop(t *testing.T) {
	src := `
main:
	li $s0, 1 !f
	j next !s
next:
	add $a0, $s0, $s1
	li $v0, 10
	li $a0, 0
	syscall
.task main targets=next create=$s0,$s1
.task next
`
	newSrc, plan, err := annotate.RewriteSource(src)
	if err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	var mainPlan *annotate.TaskPlan
	for _, tp := range plan.Tasks {
		if tp.TD.Name == "main" {
			mainPlan = tp
		}
	}
	if mainPlan == nil || !mainPlan.Drops.Has(isa.RegS0+1) {
		t.Fatalf("expected $s1 dropped from main, plan:\n%s", plan)
	}
	if !strings.Contains(newSrc, "create=$s0\n") || strings.Contains(newSrc, "create=$s0,$s1") {
		t.Fatalf("create mask not rewritten:\n%s", newSrc)
	}
	res, err := asm.AssembleOpts(newSrc, asm.Options{Mode: asm.ModeMultiscalar})
	if err != nil {
		t.Fatalf("rewritten source: %v", err)
	}
	if rep := mslint.Lint(res.Prog, res.Lines); len(rep.Diags) != 0 {
		t.Fatalf("rewritten source not lint-clean:\n%s", rep)
	}
}

// TestReleaseInsertion: a path that skips a create-mask register's only
// write (MS003 on the input) gains a release at the head of the exit
// block, and the warning disappears.
func TestReleaseInsertion(t *testing.T) {
	src := `
main:
	li $s0, 1 !f
	li $s6, 7 !f
	j t !s
t:
	bnez $s0, skip
	li $s6, 42 !f
skip:
	j out !s
out:
	add $a0, $s6, $zero
	li $v0, 1
	syscall
	li $v0, 10
	li $a0, 0
	syscall
.task main targets=t create=$s0,$s6
.task t targets=out create=$s6
.task out
`
	in, err := asm.AssembleOpts(src, asm.Options{Mode: asm.ModeMultiscalar, NoLint: true})
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	hadFlushOnly := false
	for _, d := range mslint.Lint(in.Prog, in.Lines).Diags {
		if d.Code == mslint.CodeFlushOnly {
			hadFlushOnly = true
		}
	}
	if !hadFlushOnly {
		t.Fatalf("test premise broken: input has no MS003")
	}

	newSrc, _, err := annotate.RewriteSource(src)
	if err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	if !strings.Contains(newSrc, ".msonly release $s6") {
		t.Fatalf("no release inserted:\n%s", newSrc)
	}
	res, err := asm.AssembleOpts(newSrc, asm.Options{Mode: asm.ModeMultiscalar})
	if err != nil {
		t.Fatalf("rewritten source: %v", err)
	}
	if rep := mslint.Lint(res.Prog, res.Lines); len(rep.Diags) != 0 {
		t.Fatalf("rewritten source not lint-clean:\n%s", rep)
	}
	wantOut, _, _ := runInterp(t, in.Prog)
	gotOut, _, _ := runInterp(t, res.Prog)
	if wantOut != gotOut {
		t.Fatalf("output changed: %q vs %q", wantOut, gotOut)
	}
}

// TestSkipUnanalyzable: a task whose region the walk cannot analyze (an
// indirect jump) is left untouched.
func TestSkipUnanalyzable(t *testing.T) {
	src := `
main:
	la $t0, tgt
	jalr $ra, $t0 !s
tgt:
	li $v0, 10
	li $a0, 0
	syscall
.task main create=$t0
.task tgt
`
	res, err := asm.AssembleOpts(src, asm.Options{Mode: asm.ModeMultiscalar, NoLint: true})
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	plan := annotate.Analyze(res.Prog, annotate.Options{})
	for _, tp := range plan.Tasks {
		if tp.TD.Name == "main" {
			if tp.Skipped == "" {
				t.Fatalf("main should be skipped, plan:\n%s", plan)
			}
			if tp.Changed() {
				t.Fatalf("skipped task has edits")
			}
			return
		}
	}
	t.Fatal("no plan entry for main")
}

// TestWorkloadRewrites certifies the whole suite (extras included): the
// rewritten source of every workload re-assembles under the lint gate
// with zero findings of any severity, matches the hand-annotated build
// on the functional oracle and on 4 and 8 timing units with every
// forward checked, and leaves the scalar build byte-identical.
func TestWorkloadRewrites(t *testing.T) {
	for _, w := range workloads.AllWithExtras() {
		t.Run(w.Name, func(t *testing.T) {
			src := w.Source(w.TestScale)
			orig, err := asm.AssembleOpts(src, asm.Options{Mode: asm.ModeMultiscalar})
			if err != nil {
				t.Fatalf("assemble: %v", err)
			}
			newSrc, _, err := annotate.RewriteSource(src)
			if err != nil {
				t.Fatalf("rewrite: %v", err)
			}
			res, err := asm.AssembleOpts(newSrc, asm.Options{Mode: asm.ModeMultiscalar})
			if err != nil {
				t.Fatalf("rewritten source: %v", err)
			}
			if rep := mslint.Lint(res.Prog, res.Lines); len(rep.Diags) != 0 {
				t.Fatalf("rewritten source not lint-clean:\n%s", rep)
			}
			wantOut, wantExit, _ := runInterp(t, orig.Prog)
			gotOut, gotExit, gotInstrs := runInterp(t, res.Prog)
			if wantOut != gotOut || wantExit != gotExit {
				t.Fatalf("oracle divergence: out %d vs %d bytes, exit %d vs %d",
					len(wantOut), len(gotOut), wantExit, gotExit)
			}
			// A rewrite may delete release lines, so the count to commit
			// is the rewritten program's own.
			for _, units := range []int{4, 8} {
				runCore(t, res.Prog, units, wantOut, gotInstrs)
			}
			s1, err := asm.Assemble(src, asm.ModeScalar)
			if err != nil {
				t.Fatalf("scalar: %v", err)
			}
			s2, err := asm.Assemble(newSrc, asm.ModeScalar)
			if err != nil {
				t.Fatalf("scalar of rewrite: %v", err)
			}
			if len(s1.Text) != len(s2.Text) {
				t.Fatalf("scalar build changed: %d vs %d instructions", len(s1.Text), len(s2.Text))
			}
			for i := range s1.Text {
				if s1.Text[i] != s2.Text[i] {
					t.Fatalf("scalar build changed at instruction %d", i)
				}
			}
		})
	}
}

// TestRingSendReduction is the headline property: on the extras whose
// function tasks are annotated to the conservative ABI contract, the
// flow-derived return liveness drops create-mask bits and the
// timing simulator places measurably fewer values on the forwarding
// ring, with identical architectural results.
func TestRingSendReduction(t *testing.T) {
	for _, name := range []string{"hashmix", "bsearch"} {
		t.Run(name, func(t *testing.T) {
			w := workloads.Get(name)
			if w == nil {
				t.Fatalf("workload %s not registered", name)
			}
			p, err := asm.Assemble(w.Source(w.TestScale), asm.ModeMultiscalar)
			if err != nil {
				t.Fatalf("assemble: %v", err)
			}
			opt, plan := annotate.Optimize(p)
			if plan.DroppedSends() == 0 {
				t.Fatalf("no create-mask bits dropped, plan:\n%s", plan)
			}
			wantOut, _, wantInstrs := runInterp(t, p)
			hand := runCore(t, p, 4, wantOut, wantInstrs)
			auto := runCore(t, opt, 4, wantOut, wantInstrs)
			if auto.RingSends >= hand.RingSends {
				t.Fatalf("ring sends not reduced: hand %d, optimized %d", hand.RingSends, auto.RingSends)
			}
			// The input program must not have been touched.
			if p.TaskAt(p.Entry) == nil {
				t.Fatal("input program mutated")
			}
		})
	}
}

// TestOptimizeIdempotent: optimizing an already-optimized program plans
// no further create-mask changes.
func TestOptimizeIdempotent(t *testing.T) {
	w := workloads.Get("bsearch")
	p, err := asm.Assemble(w.Source(w.TestScale), asm.ModeMultiscalar)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	opt, _ := annotate.Optimize(p)
	_, plan2 := annotate.Optimize(opt)
	if plan2.DroppedSends() != 0 {
		t.Fatalf("second pass still drops bits:\n%s", plan2)
	}
}
