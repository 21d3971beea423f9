package multiscalar_test

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"multiscalar"
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
		res, err := multiscalar.Run(prog, multiscalar.ScalarConfig(width, true), multiscalar.WithVerify())
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
		res, err := multiscalar.Run(prog, multiscalar.DefaultConfig(units, 1, false), multiscalar.WithVerify())
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
// (the one-unit configuration on a binary without descriptors), and an
// oracle-verified run.
func TestFacadeOptionsReplaceWrappers(t *testing.T) {
	full, err := multiscalar.Assemble(apiDemo, multiscalar.WithMode(multiscalar.ModeMultiscalar))
	if err != nil || full.Prog == nil || len(full.Lines) == 0 {
		t.Fatalf("Assemble(WithMode) = %+v, %v", full, err)
	}
	prog := full.Prog
	if res, err := multiscalar.Run(prog, multiscalar.DefaultConfig(4, 1, false)); err != nil || res.TasksRetired == 0 {
		t.Fatalf("multiscalar Run = %+v, %v", res, err)
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
	if res, err := multiscalar.Run(prog, multiscalar.DefaultConfig(4, 1, false), multiscalar.WithVerify()); err != nil || res.Out != "1275" {
		t.Fatalf("Run(WithVerify) = %+v, %v", res, err)
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

	direct, err := multiscalar.Run(mustAssemble(t, apiDemo, multiscalar.ModeMultiscalar), cfg,
		multiscalar.WithVerify())
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
	res, err := multiscalar.Run(prog, multiscalar.DefaultConfig(4, 1, false), multiscalar.WithVerify())
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
	res, err := multiscalar.Run(back, multiscalar.DefaultConfig(4, 1, false), multiscalar.WithVerify())
	if err != nil {
		t.Fatal(err)
	}
	if res.Out != "1275" {
		t.Errorf("out = %q", res.Out)
	}
}

// TestScalarIsAConfiguration pins the two edges of "the scalar baseline
// is the one-unit machine on a binary without descriptors": wider
// machines still refuse such a binary by name, and a snapshot written by
// the separate scalar machine of earlier versions (kind 2 in the header)
// is described and refused by name — what mssim -restore prints and
// exits with — rather than misread.
func TestScalarIsAConfiguration(t *testing.T) {
	prog := mustAssemble(t, apiDemo, multiscalar.ModeScalar)
	if _, err := multiscalar.Run(prog, multiscalar.DefaultConfig(4, 1, false)); err == nil || !strings.Contains(err.Error(), "no task descriptors") {
		t.Errorf("4 units on a binary without descriptors: %v", err)
	}

	cfg := multiscalar.ScalarConfig(1, false)
	var snap []byte
	if _, err := multiscalar.Run(prog, cfg, multiscalar.WithCheckpoint(10, func(s []byte) error {
		snap = append([]byte(nil), s...)
		return nil
	})); err != nil || snap == nil {
		t.Fatalf("checkpointed scalar run: %v (snapshot %d bytes)", err, len(snap))
	}
	if res, err := multiscalar.Run(prog, cfg, multiscalar.RestoreFrom(snap)); err != nil || res.Out != "1275" {
		t.Fatalf("restoring the one machine's own snapshot: %+v, %v", res, err)
	}
	const kindAt = 6 + 2 // after the magic and the format version
	snap[kindAt] = 2
	meta, err := multiscalar.PeekSnapshot(snap)
	if err != nil || !strings.Contains(multiscalar.SnapshotKindName(meta.Kind), "scalar") {
		t.Fatalf("peeking a retired-kind snapshot: %+v, %v", meta, err)
	}
	if _, err := multiscalar.Run(prog, cfg, multiscalar.RestoreFrom(snap)); err == nil ||
		!strings.Contains(err.Error(), "scalar") || !strings.Contains(err.Error(), "want multiscalar") {
		t.Errorf("restoring a retired-kind snapshot: %v", err)
	}
}
