package core

import (
	"testing"

	"multiscalar/internal/asm"
	"multiscalar/internal/interp"
	"multiscalar/internal/isa"
)

const exitSeq = "\n\tli $v0, 10\n\tli $a0, 0\n\tsyscall\n"

// oracle runs the functional interpreter over a binary.
func oracle(t *testing.T, p *isa.Program) (*interp.Machine, *interp.SysEnv) {
	t.Helper()
	env := interp.NewSysEnv()
	m := interp.NewMachine(p, env)
	if err := m.Run(50_000_000); err != nil {
		t.Fatalf("oracle: %v", err)
	}
	return m, env
}

// newScalarMachine builds the one-unit machine for a binary without task
// descriptors: the scalar baseline.
func newScalarMachine(t testing.TB, p *isa.Program, cfg Config) *Multiscalar {
	t.Helper()
	m, err := NewMultiscalar(p, interp.NewSysEnv(), cfg)
	if err != nil {
		t.Fatalf("scalar machine: %v", err)
	}
	return m
}

// runScalar assembles in scalar mode and runs the scalar baseline.
func runScalar(t *testing.T, src string, width int, ooo bool) (*Result, *interp.Machine) {
	t.Helper()
	p, err := asm.Assemble(src, asm.ModeScalar)
	if err != nil {
		t.Fatalf("assemble scalar: %v", err)
	}
	om, oenv := oracle(t, p)
	res, err := newScalarMachine(t, p, ScalarConfig(width, ooo)).Run()
	if err != nil {
		t.Fatalf("scalar run: %v", err)
	}
	if res.Out != oenv.Out.String() {
		t.Fatalf("scalar out = %q, oracle %q", res.Out, oenv.Out.String())
	}
	if res.Committed != om.ICount {
		t.Fatalf("scalar committed = %d, oracle %d", res.Committed, om.ICount)
	}
	return res, om
}

// runMS assembles in multiscalar mode and runs the multiscalar machine,
// checking output and committed-instruction equivalence against the
// interpreter on the same binary.
func runMS(t *testing.T, src string, units, width int, ooo bool) *Result {
	t.Helper()
	p, err := asm.Assemble(src, asm.ModeMultiscalar)
	if err != nil {
		t.Fatalf("assemble ms: %v", err)
	}
	om, oenv := oracle(t, p)
	env := interp.NewSysEnv()
	cfg := DefaultConfig(units, width, ooo)
	cfg.MaxCycles = 50_000_000
	m, err := NewMultiscalar(p, env, cfg)
	if err != nil {
		t.Fatalf("new multiscalar: %v", err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatalf("ms run (%d units): %v", units, err)
	}
	if res.Out != oenv.Out.String() {
		t.Fatalf("ms out = %q, oracle %q", res.Out, oenv.Out.String())
	}
	if res.Committed != om.ICount {
		t.Fatalf("ms committed = %d, oracle %d", res.Committed, om.ICount)
	}
	return res
}

// sumLoop is the canonical loop-iteration-per-task program: each
// iteration is one task; $s0 (induction) and $s1 (accumulator) flow
// between tasks.
const sumLoop = `
main:
	li $s0, 100
	li $s1, 0
	j  loop !s
loop:
	add  $s1, $s1, $s0 !f
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

func TestScalarBaseline(t *testing.T) {
	for _, width := range []int{1, 2} {
		for _, ooo := range []bool{false, true} {
			res, _ := runScalar(t, sumLoop, width, ooo)
			if res.IPC() <= 0.1 || res.IPC() > float64(width) {
				t.Errorf("width=%d ooo=%v IPC=%.3f out of range", width, ooo, res.IPC())
			}
		}
	}
}

func TestMultiscalarSumLoop(t *testing.T) {
	for _, units := range []int{2, 4, 8} {
		for _, ooo := range []bool{false, true} {
			res := runMS(t, sumLoop, units, 1, ooo)
			if res.TasksRetired < 100 {
				t.Errorf("units=%d tasks retired = %d", units, res.TasksRetired)
			}
		}
	}
}

// parLoop has independent iterations (accumulating into memory slots):
// real speedup should appear.
const parLoop = `
	.data
src:	.space 1600
dst:	.space 1600
	.text
main:
	; initialize src[i] = i using a quick loop (part of main task)
	li $t0, 0
	la $t1, src
init:
	sw $t0, 0($t1)
	addi $t1, $t1, 4
	addi $t0, $t0, 1
	slt $at, $t0, 400
	bnez $at, init
	li   $s0, 0
	j    work !s
work:
	; update and forward the induction variable early, keep a local copy
	; (Section 3.2.2 of the paper: the sequential habit of bumping it at
	; the loop bottom serializes the tasks)
	move $t9, $s0
	addi $s0, $s0, 1 !f
	sll  $t0, $t9, 2
	lw   $t1, src($t0)
	mul  $t2, $t1, $t1
	mul  $t2, $t2, $t1
	add  $t3, $t2, $t1
	sw   $t3, dst($t0)
	slt  $at, $s0, 400
	bnez $at, work !s
done:
	li   $t0, 0
	li   $s1, 0
	la   $t1, dst
chk:
	lw   $t2, 0($t1)
	add  $s1, $s1, $t2
	addi $t1, $t1, 4
	addi $t0, $t0, 1
	slt  $at, $t0, 400
	bnez $at, chk
	move $a0, $s1
	li $v0, 1
	syscall
` + exitSeq + `
	.task main targets=work create=$s0,$t0,$t1,$at
	.task work targets=work,done create=$s0,$t0,$t1,$t2,$t3,$t9,$at
	.task done entry=done
`

func TestMultiscalarSpeedup(t *testing.T) {
	p, err := asm.Assemble(parLoop, asm.ModeMultiscalar)
	if err != nil {
		t.Fatal(err)
	}
	om, _ := oracle(t, p)
	_ = om
	res1 := runMS(t, parLoop, 2, 1, false)
	res8 := runMS(t, parLoop, 8, 1, false)
	if res8.Cycles >= res1.Cycles {
		t.Errorf("8 units (%d cycles) not faster than 2 units (%d)", res8.Cycles, res1.Cycles)
	}
}

func TestScalarVsMultiscalarSpeedup(t *testing.T) {
	sres, _ := runScalar(t, parLoop, 1, false)
	mres := runMS(t, parLoop, 8, 1, false)
	sp := float64(sres.Cycles) / float64(mres.Cycles)
	t.Logf("scalar=%d ms8=%d speedup=%.2f pred=%.1f%%", sres.Cycles, mres.Cycles, sp, 100*mres.PredAccuracy())
	if sp < 1.5 {
		t.Errorf("8-unit speedup = %.2f on an embarrassingly parallel loop", sp)
	}
}

// memDep forces a memory-order dependence between iterations: each task
// increments a memory counter. Later tasks that load before the earlier
// store must squash and re-execute.
const memDep = `
	.data
counter:	.word 0
	.text
main:
	li $s0, 50
	j  loop !s
loop:
	lw   $t0, counter
	addi $t0, $t0, 1
	sw   $t0, counter
	addi $s0, $s0, -1 !f
	bnez $s0, loop !s
end:
	lw  $a0, counter
	li $v0, 1
	syscall
` + exitSeq + `
	.task main targets=loop create=$s0
	.task loop targets=loop,end create=$s0,$t0
	.task end entry=end
`

func TestMemoryOrderViolationSquash(t *testing.T) {
	res := runMS(t, memDep, 4, 1, false)
	if res.MemSquashes == 0 {
		t.Error("expected memory-order squashes on a memory recurrence")
	}
	t.Logf("mem squashes = %d, tasks retired = %d", res.MemSquashes, res.TasksRetired)
}

func TestControlSquashOnLoopExit(t *testing.T) {
	// The loop-back prediction must eventually be wrong at the exit.
	res := runMS(t, sumLoop, 4, 1, false)
	if res.CtlSquashes == 0 {
		t.Error("expected at least one control squash (loop exit)")
	}
	if res.PredAccuracy() < 0.9 {
		t.Errorf("prediction accuracy = %.2f on a 100-iteration loop", res.PredAccuracy())
	}
}

// callProg exercises function-as-task with the return address stack.
const callProg = `
main:
	li  $s0, 10
	li  $s1, 0
	j   loop !s
loop:
	move $a0, $s0
	jal  twice !s
cont:
	add  $s1, $s1, $v0 !f
	addi $s0, $s0, -1 !f
	bnez $s0, loop !s
end:
	move $a0, $s1
	li $v0, 1
	syscall
` + exitSeq + `
twice:
	add $v0, $a0, $a0 !f
	jr  $ra !s
	.task main targets=loop create=$s0,$s1
	.task loop targets=twice pushra=cont create=$a0,$ra
	.task twice targets=ret create=$v0
	.task cont targets=loop,end create=$s0,$s1
	.task end entry=end
`

func TestFunctionCallTasks(t *testing.T) {
	for _, units := range []int{2, 4, 8} {
		res := runMS(t, callProg, units, 1, false)
		if res.TasksRetired < 30 {
			t.Errorf("units=%d tasks = %d", units, res.TasksRetired)
		}
	}
}

func TestSuppressedCallInsideTask(t *testing.T) {
	// The helper runs inside each loop task (no annotations on it).
	src := `
main:
	li  $s0, 10
	li  $s1, 0
	j   loop !s
loop:
	move $a0, $s0
	jal  helper
	add  $s1, $s1, $v0 !f
	addi $s0, $s0, -1 !f
	bnez $s0, loop !s
end:
	move $a0, $s1
	li $v0, 1
	syscall
` + exitSeq + `
helper:
	mul $v0, $a0, $a0
	jr  $ra
	.task main targets=loop create=$s0,$s1
	.task loop targets=loop,end create=$s0,$s1,$a0,$v0,$ra
	.task end entry=end
`
	res := runMS(t, src, 4, 2, true)
	if res.TasksRetired < 10 {
		t.Errorf("tasks = %d", res.TasksRetired)
	}
}

func TestPerUnitActivityAccounting(t *testing.T) {
	res := runMS(t, sumLoop, 4, 1, false)
	var total uint64
	for _, c := range res.Activity {
		total += c
	}
	total += res.SquashedCycles
	// Every unit-cycle is classified somewhere: 4 units x cycles.
	want := 4 * res.Cycles
	if total != want {
		t.Errorf("activity total = %d, want %d (4 x %d cycles)", total, want, res.Cycles)
	}
}

func TestFloatAcrossTasks(t *testing.T) {
	src := `
	.data
vals:	.double 1.5, 2.5, 3.5, 4.5, 5.5, 6.5, 7.5, 8.5
	.text
main:
	li   $s0, 8
	la   $s1, vals
	mtc1 $f20, $zero
	j    loop !s
loop:
	l.d   $f0, 0($s1)
	add.d $f20, $f20, $f0
	mov.d $f20, $f20 !f
	addi  $s1, $s1, 8 !f
	addi  $s0, $s0, -1 !f
	bnez  $s0, loop !s
end:
	mfc1 $a0, $f20
	li $v0, 1
	syscall
` + exitSeq + `
	.task main targets=loop create=$s0,$s1,$f20
	.task loop targets=loop,end create=$s0,$s1,$f0,$f20
	.task end entry=end
`
	res := runMS(t, src, 4, 1, false)
	if res.Out != "40" {
		t.Errorf("out = %q, want 40", res.Out)
	}
}

func TestTaskWithoutForwardBitsUsesCompletionFlush(t *testing.T) {
	// No !f anywhere: values flow only through the completion flush.
	src := `
main:
	li $s0, 20
	li $s1, 0
	j  loop !s
loop:
	add  $s1, $s1, $s0
	addi $s0, $s0, -1
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
	res := runMS(t, src, 4, 1, false)
	if res.Out != "210" {
		t.Errorf("out = %q", res.Out)
	}
}

func TestForwardBitsBeatCompletionFlush(t *testing.T) {
	// Same computation with and without early forwarding of the
	// induction variable: early forwarding must not be slower.
	withFwd := runMS(t, sumLoop, 4, 1, false)
	noFwd := runMS(t, `
main:
	li $s0, 100
	li $s1, 0
	j  loop !s
loop:
	add  $s1, $s1, $s0
	addi $s0, $s0, -1
	bnez $s0, loop !s
end:
	move $a0, $s1
	li $v0, 1
	syscall
`+exitSeq+`
	.task main targets=loop create=$s0,$s1
	.task loop targets=loop,end create=$s0,$s1
	.task end entry=end
`, 4, 1, false)
	if withFwd.Cycles > noFwd.Cycles {
		t.Errorf("forward bits (%d cycles) slower than completion flush (%d)", withFwd.Cycles, noFwd.Cycles)
	}
}

func TestStorePrintInteraction(t *testing.T) {
	// A task stores into a buffer and the same task prints it: the
	// syscall must see the speculative (ARB-buffered) bytes.
	src := `
	.data
buf:	.asciiz "xy\n"
	.text
main:
	li $t0, 'a'
	sb $t0, buf
	la $a0, buf
	li $v0, 4
	syscall
` + exitSeq + `
	.task main create=$t0,$a0,$v0
`
	res := runMS(t, src, 4, 1, false)
	if res.Out != "ay\n" {
		t.Errorf("out = %q", res.Out)
	}
}

func TestARBSquashPolicy(t *testing.T) {
	p, err := asm.Assemble(parLoop, asm.ModeMultiscalar)
	if err != nil {
		t.Fatal(err)
	}
	om, oenv := oracle(t, p)
	env := interp.NewSysEnv()
	cfg := DefaultConfig(4, 1, false)
	cfg.ARBEntries = 4 // tiny: force overflows
	cfg.ARBPolicy = 1  // PolicySquash
	cfg.MaxCycles = 50_000_000
	m, err := NewMultiscalar(p, env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Out != oenv.Out.String() || res.Committed != om.ICount {
		t.Fatalf("overflow-squash run diverged: out=%q committed=%d want %d",
			res.Out, res.Committed, om.ICount)
	}
	t.Logf("arb squashes = %d overflows = %d", res.ARBSquashes, res.ARBOverflows)
}

func TestARBStallPolicyTiny(t *testing.T) {
	p, err := asm.Assemble(parLoop, asm.ModeMultiscalar)
	if err != nil {
		t.Fatal(err)
	}
	om, oenv := oracle(t, p)
	env := interp.NewSysEnv()
	cfg := DefaultConfig(4, 1, false)
	cfg.ARBEntries = 4
	cfg.MaxCycles = 50_000_000
	m, err := NewMultiscalar(p, env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Out != oenv.Out.String() || res.Committed != om.ICount {
		t.Fatalf("stall run diverged")
	}
}

func TestUnitSweepInvariance(t *testing.T) {
	// Committed instruction count must be identical across unit counts.
	var base uint64
	for i, units := range []int{2, 4, 8} {
		res := runMS(t, parLoop, units, 1, false)
		if i == 0 {
			base = res.Committed
		} else if res.Committed != base {
			t.Errorf("units=%d committed=%d, want %d", units, res.Committed, base)
		}
	}
}
