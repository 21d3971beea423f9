package multiscalar_test

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"multiscalar"
	"multiscalar/internal/core"
)

const apiDemo = `
main:
	li $s0, 50
	li $s1, 0
	j  loop !s
loop:
	add  $s1, $s1, $s0 !f
	addi $s0, $s0, -1 !f
	bnez $s0, loop !s
done:
	move $a0, $s1
	li $v0, 1
	syscall
	li $v0, 10
	li $a0, 0
	syscall
	.task main targets=loop create=$s0,$s1
	.task loop targets=loop,done create=$s0,$s1
	.task done
`

// mustAssemble builds one mode of a source through the options API.
func mustAssemble(t *testing.T, src string, mode multiscalar.Mode) *multiscalar.Program {
	t.Helper()
	res, err := multiscalar.Assemble(src, multiscalar.WithMode(mode))
	if err != nil {
		t.Fatal(err)
	}
	return res.Prog
}

func TestFacadeAssembleAndInterpret(t *testing.T) {
	prog := mustAssemble(t, apiDemo, multiscalar.ModeMultiscalar)
	res, err := multiscalar.Interpret(prog, multiscalar.WithMaxInstrs(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	if res.Out != "1275" {
		t.Errorf("out = %q", res.Out)
	}
	if res.ExitCode != 0 || res.Instructions == 0 {
		t.Errorf("res = %+v", res)
	}
}

func TestFacadeVerifyScalar(t *testing.T) {
	prog := mustAssemble(t, apiDemo, multiscalar.ModeScalar)
	for _, width := range []int{1, 2} {
		res, err := multiscalar.Run(prog, multiscalar.ScalarConfig(width, true))
		if err != nil {
			t.Fatal(err)
		}
		if res.Out != "1275" {
			t.Errorf("width=%d out = %q", width, res.Out)
		}
	}
}

func TestFacadeVerifyMultiscalar(t *testing.T) {
	prog := mustAssemble(t, apiDemo, multiscalar.ModeMultiscalar)
	for _, units := range []int{2, 4, 8, 16} {
		res, err := multiscalar.Run(prog, multiscalar.DefaultConfig(units, 1, false))
		if err != nil {
			t.Fatalf("units=%d: %v", units, err)
		}
		if res.TasksRetired < 50 {
			t.Errorf("units=%d tasks = %d", units, res.TasksRetired)
		}
	}
}

func TestFacadeRejectsUnannotated(t *testing.T) {
	prog := mustAssemble(t, apiDemo, multiscalar.ModeScalar)
	if _, err := multiscalar.Run(prog, multiscalar.DefaultConfig(4, 1, false)); err == nil {
		t.Error("multiscalar run of a scalar binary should fail")
	}
}

// TestFacadeOptionsReplaceWrappers pins that the options facade covers
// every entry point the removed pre-options wrappers offered: a mode-
// selected build with its line table, a multiscalar run, a scalar run
// (the one-unit configuration on a binary without descriptors), each
// judged against the oracle, and a sampled estimate, whose output and
// exit code are the run's.
func TestFacadeOptionsReplaceWrappers(t *testing.T) {
	full, err := multiscalar.Assemble(apiDemo, multiscalar.WithMode(multiscalar.ModeMultiscalar))
	if err != nil || full.Prog == nil || len(full.Lines) == 0 {
		t.Fatalf("Assemble(WithMode) = %+v, %v", full, err)
	}
	prog := full.Prog
	cfg := multiscalar.DefaultConfig(4, 1, false)
	res, err := multiscalar.Run(prog, cfg)
	if err != nil || res.TasksRetired == 0 || res.Out != "1275" {
		t.Fatalf("multiscalar Run = %+v, %v", res, err)
	}
	if est, err := multiscalar.RunSampled(prog, cfg); err != nil || est.Out != res.Out || est.ExitCode != res.ExitCode {
		t.Fatalf("RunSampled = %+v, %v; Run printed %q and exited %d", est, err, res.Out, res.ExitCode)
	}
	sc, err := multiscalar.Assemble(apiDemo)
	if err != nil || len(sc.Prog.Tasks) != 0 {
		t.Fatalf("default Assemble should be a scalar build: %+v, %v", sc, err)
	}
	// The scalar baseline retires one task — the program — and prints no
	// task statistics.
	if res, err := multiscalar.Run(sc.Prog, multiscalar.ScalarConfig(1, false)); err != nil || res.TasksRetired != 1 || strings.Contains(res.String(), "tasks=") {
		t.Fatalf("scalar Run = %+v, %v", res, err)
	}
}

// TestFacadeSubmitJob drives the job facade: a JobSpec submitted twice
// is answered from the content-addressed cache the second time, and the
// cached result agrees with a direct Run of the same program and config.
func TestFacadeSubmitJob(t *testing.T) {
	cfg := multiscalar.DefaultConfig(4, 1, false)
	spec := multiscalar.JobSpec{
		Op:     multiscalar.JobSimulate,
		Source: apiDemo,
		Mode:   multiscalar.ModeMultiscalar,
		Config: cfg,
		Verify: true,
	}
	ctx := context.Background()
	first, err := multiscalar.SubmitJob(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached || first.Sim == nil || first.Sim.Out != "1275" {
		t.Fatalf("first submission: %+v", first)
	}
	again, err := multiscalar.SubmitJob(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached || again.Key != first.Key || again.Sim.Cycles != first.Sim.Cycles {
		t.Fatalf("resubmission not cached: %+v vs %+v", again, first)
	}

	direct, err := multiscalar.Run(mustAssemble(t, apiDemo, multiscalar.ModeMultiscalar), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if direct.Cycles != first.Sim.Cycles || direct.Committed != first.Sim.Committed {
		t.Fatalf("job result diverged from direct Run: %d/%d cycles, %d/%d committed",
			first.Sim.Cycles, direct.Cycles, first.Sim.Committed, direct.Committed)
	}
}

func TestFacadePartition(t *testing.T) {
	src := `
main:
	li $t0, 20
	li $s1, 0
loop:
	add $s1, $s1, $t0
	addi $t0, $t0, -1
	bnez $t0, loop
	move $a0, $s1
	li $v0, 1
	syscall
	li $v0, 10
	li $a0, 0
	syscall
`
	prog := mustAssemble(t, src, multiscalar.ModeMultiscalar)
	if err := multiscalar.Partition(prog, multiscalar.PartitionOptions{}); err != nil {
		t.Fatal(err)
	}
	if len(prog.Tasks) < 2 {
		t.Fatalf("tasks = %d", len(prog.Tasks))
	}
	res, err := multiscalar.Run(prog, multiscalar.DefaultConfig(4, 1, false))
	if err != nil {
		t.Fatal(err)
	}
	if res.Out != "210" {
		t.Errorf("out = %q", res.Out)
	}
}

func TestFacadeWorkloadRegistry(t *testing.T) {
	names := multiscalar.WorkloadNames()
	if len(names) != 14 { // 10 paper benchmarks + 4 extras
		t.Fatalf("names = %v", names)
	}
	if names[9] != "example" {
		t.Errorf("table order broken: %v", names)
	}
	w := multiscalar.GetWorkload("example")
	if w == nil || !strings.Contains(w.Description, "linked-list") {
		t.Fatalf("example workload = %+v", w)
	}
	if multiscalar.GetWorkload("nope") != nil {
		t.Error("unknown workload should be nil")
	}
}

func TestFacadeConfigDefaults(t *testing.T) {
	cfg := multiscalar.DefaultConfig(8, 2, true)
	if cfg.NumUnits != 8 || cfg.IssueWidth != 2 || !cfg.OutOfOrder {
		t.Errorf("cfg = %+v", cfg)
	}
	if cfg.ARBEntries != 256 || cfg.DCacheHit != 2 || cfg.NumBanks() != 16 {
		t.Errorf("paper defaults wrong: %+v", cfg)
	}
	s := multiscalar.ScalarConfig(1, false)
	if s.NumUnits != 1 || s.DCacheHit != 1 || s.NumBanks() != 1 {
		t.Errorf("scalar config wrong: %+v", s)
	}
}

func TestFacadeAssembleError(t *testing.T) {
	if _, err := multiscalar.Assemble("main:\n\tbogus $t0\n"); err == nil {
		t.Error("expected assemble error")
	}
}

func TestFacadeSaveLoadProgram(t *testing.T) {
	prog := mustAssemble(t, apiDemo, multiscalar.ModeMultiscalar)
	var buf bytes.Buffer
	if err := multiscalar.SaveProgram(&buf, prog); err != nil {
		t.Fatal(err)
	}
	back, err := multiscalar.LoadProgram(&buf)
	if err != nil {
		t.Fatal(err)
	}
	res, err := multiscalar.Run(back, multiscalar.DefaultConfig(4, 1, false))
	if err != nil {
		t.Fatal(err)
	}
	if res.Out != "1275" {
		t.Errorf("out = %q", res.Out)
	}
}

// TestScalarIsAConfiguration pins the edge of "the scalar baseline is
// the one-unit machine on a binary without descriptors": wider machines
// refuse such a binary by name.
func TestScalarIsAConfiguration(t *testing.T) {
	prog := mustAssemble(t, apiDemo, multiscalar.ModeScalar)
	if _, err := multiscalar.Run(prog, multiscalar.DefaultConfig(4, 1, false)); err == nil || !strings.Contains(err.Error(), "no task descriptors") {
		t.Errorf("4 units on a binary without descriptors: %v", err)
	}
}

// fccSrc compares in one task and branches on the flag first thing in
// the next (lint error MS016): the flag does not cross a task boundary on
// the machine, so its branch goes the other way from the sequential run's.
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
	syscall
	li     $v0, 10
	li     $a0, 0
	syscall
yes:
	li     $a0, 1
	li     $v0, 1
	syscall
	li     $v0, 10
	li     $a0, 0
	syscall
	.task main targets=t
	.task t targets=yes,no
	.task no
	.task yes
`

// TestRunIsJudged: Run has no unjudged mode. A program built past the
// lint gate that leaves the sequential state is refused at the retire
// that left it, not answered with the machine's output.
func TestRunIsJudged(t *testing.T) {
	res, err := multiscalar.Assemble(fccSrc, multiscalar.WithMode(multiscalar.ModeMultiscalar), multiscalar.WithoutLint())
	if err != nil {
		t.Fatal(err)
	}
	out, err := multiscalar.Run(res.Prog, multiscalar.DefaultConfig(4, 1, false))
	var d *core.DivergenceError
	if !errors.As(err, &d) || d.Task != "t" || d.What != core.DivNextPC {
		t.Fatalf("Run = %+v, %v; want the next-PC divergence of task t", out, err)
	}
}
