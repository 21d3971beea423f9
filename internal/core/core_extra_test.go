package core

import (
	"errors"
	"strings"
	"testing"

	"multiscalar/internal/asm"
	"multiscalar/internal/interp"
)

// TestCheckForwardsCatchesBadAnnotation plants a forward bit on an early
// write (the final value differs) and expects the forward check, which
// every run makes, to reject the run — the invariant that makes hand
// annotation safe.
func TestCheckForwardsCatchesBadAnnotation(t *testing.T) {
	src := `
main:
	li $s0, 5
	li $s1, 0
	j  loop !s
loop:
	addi $s1, $s1, 1 !f
	addi $s1, $s1, 1
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
	// mslint catches this program statically (MS004); assemble without the
	// lint gate so the runtime checker gets its turn.
	res, err := asm.AssembleOpts(src, asm.Options{Mode: asm.ModeMultiscalar, NoLint: true})
	if err != nil {
		t.Fatal(err)
	}
	p := res.Prog
	cfg := DefaultConfig(4, 1, false)
	m, err := NewMultiscalar(p, interp.NewSysEnv(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.Run()
	if err == nil || !strings.Contains(err.Error(), "stale") {
		t.Fatalf("expected stale-forward error, got %v", err)
	}
}

// TestForwardedNaNIsNotStale: the forward check compares bit patterns,
// so a register forwarded as NaN and still NaN at task end is the value
// that was sent (NaN != NaN as a float).
func TestForwardedNaNIsNotStale(t *testing.T) {
	runMS(t, `
main:	mtc1 $f0, $zero
	div.d $f2, $f0, $f0 !f
	j next !s
next:	mfc1 $t0, $f2
`+exitSeq+`
	.task main targets=next create=$f2
	.task next
`, 2, 1, false)
}

// TestStaticPredictionStillCorrect: turning the predictor off must never
// change architectural behaviour, only timing.
func TestStaticPredictionStillCorrect(t *testing.T) {
	p, err := asm.Assemble(sumLoop, asm.ModeMultiscalar)
	if err != nil {
		t.Fatal(err)
	}
	om, oenv := oracle(t, p)
	cfg := DefaultConfig(4, 1, false)
	cfg.StaticPredict = true
	m, err := NewMultiscalar(p, interp.NewSysEnv(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Out != oenv.Out.String() || res.Committed != om.ICount {
		t.Fatal("static prediction changed behaviour")
	}
}

// TestDeepRecursionThroughRAS runs function-as-task recursion deeper than
// a few frames, exercising the sequencer's return address stack and its
// snapshots across squashes.
func TestDeepRecursionThroughRAS(t *testing.T) {
	src := `
main:
	li  $a0, 12
	jal fib !s
after:
	move $a0, $v0
	li $v0, 1
	syscall
` + exitSeq + `
fib:
	addi $sp, $sp, -12
	sw   $ra, 0($sp)
	sw   $a0, 4($sp)
	li   $v0, 1
	slt  $at, $a0, 2
	bnez $at, fibdone
	addi $a0, $a0, -1
	jal  fib !s
fibmid:
	sw   $v0, 8($sp)
	lw   $a0, 4($sp)
	addi $a0, $a0, -2
	jal  fib !s
fibend:
	lw   $t0, 8($sp)
	add  $v0, $v0, $t0
fibdone:
	lw   $ra, 0($sp)
	addi $sp, $sp, 12
	jr   $ra !s
	.task main targets=fib pushra=after create=$a0,$ra
	.task after
	.task fib targets=fib,ret pushra=fibmid call=fib create=$a0,$v0,$ra,$sp,$at
	.task fibmid targets=fib pushra=fibend create=$a0,$v0,$ra,$sp
	.task fibend targets=ret create=$v0,$t0,$ra,$sp,$a0,$at
`
	// The annotation above is intricate; validate against the oracle
	// across unit counts.
	p, err := asm.Assemble(src, asm.ModeMultiscalar)
	if err != nil {
		t.Fatal(err)
	}
	om, oenv := oracle(t, p)
	if oenv.Out.String() != "233" {
		t.Fatalf("oracle fib(12) = %q", oenv.Out.String())
	}
	for _, units := range []int{2, 4, 8} {
		cfg := DefaultConfig(units, 1, false)
		cfg.MaxCycles = 50_000_000
		m, err := NewMultiscalar(p, interp.NewSysEnv(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run()
		if err != nil {
			t.Fatalf("units=%d: %v", units, err)
		}
		if res.Out != "233" || res.Committed != om.ICount {
			t.Fatalf("units=%d: out=%q committed=%d want %d",
				units, res.Out, res.Committed, om.ICount)
		}
	}
}

// TestSixteenUnits pushes the circular queue harder than the paper's
// configurations.
func TestSixteenUnits(t *testing.T) {
	res := runMS(t, parLoop, 16, 2, true)
	if res.TasksRetired < 400 {
		t.Errorf("tasks = %d", res.TasksRetired)
	}
}

// TestRingBandwidthPacing: a task forwarding many registers at once on a
// 1-way unit must spread the sends over multiple cycles; the program
// still completes correctly.
func TestRingBandwidthPacing(t *testing.T) {
	src := `
main:
	li $s0, 10
	j  loop !s
loop:
	addi $s0, $s0, -1 !f
	addi $s1, $s0, 1 !f
	addi $s2, $s0, 2 !f
	addi $s3, $s0, 3 !f
	addi $s4, $s0, 4 !f
	addi $s5, $s0, 5 !f
	bnez $s0, loop !s
end:
	add $a0, $s1, $s2
	add $a0, $a0, $s3
	add $a0, $a0, $s4
	add $a0, $a0, $s5
	li $v0, 1
	syscall
` + exitSeq + `
	.task main targets=loop create=$s0
	.task loop targets=loop,end create=$s0,$s1,$s2,$s3,$s4,$s5
	.task end entry=end
`
	res := runMS(t, src, 8, 1, false)
	if res.TasksRetired < 10 {
		t.Errorf("tasks = %d", res.TasksRetired)
	}
}

// TestDescriptorCacheColdMissDelaysFirstAssignment: a tiny descriptor
// cache forces misses; behaviour must be unchanged, cycles higher.
func TestDescriptorCachePressure(t *testing.T) {
	p, err := asm.Assemble(sumLoop, asm.ModeMultiscalar)
	if err != nil {
		t.Fatal(err)
	}
	om, oenv := oracle(t, p)

	run := func(entries int) *Result {
		cfg := DefaultConfig(4, 1, false)
		cfg.DescCacheEntries = entries
		m, err := NewMultiscalar(p, interp.NewSysEnv(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Out != oenv.Out.String() || res.Committed != om.ICount {
			t.Fatal("descriptor cache size changed behaviour")
		}
		return res
	}
	big := run(1024)
	small := run(1)
	if small.Cycles < big.Cycles {
		t.Errorf("1-entry descriptor cache (%d cycles) faster than 1024 (%d)",
			small.Cycles, big.Cycles)
	}
}

// TestResultString covers the summary formatting.
func TestResultString(t *testing.T) {
	res := runMS(t, sumLoop, 4, 1, false)
	s := res.String()
	if !strings.Contains(s, "IPC") || !strings.Contains(s, "tasks=") {
		t.Errorf("String() = %q", s)
	}
}

// TestActivitySumInvariant (property over several programs): unit-cycles
// are fully classified for any run.
func TestActivitySumInvariant(t *testing.T) {
	for _, src := range []string{sumLoop, parLoop, memDep, callProg} {
		for _, units := range []int{2, 8} {
			res := runMS(t, src, units, 1, false)
			var total uint64
			for _, c := range res.Activity {
				total += c
			}
			total += res.SquashedCycles
			if total != uint64(units)*res.Cycles {
				t.Errorf("units=%d: classified %d of %d unit-cycles",
					units, total, uint64(units)*res.Cycles)
			}
		}
	}
}

// TestTaskDescriptorValidationAtRuntime: a descriptor whose target list
// omits the real exit produces a loud error rather than silence.
func TestExitNotInTargetsErrors(t *testing.T) {
	src := `
main:
	li $s0, 2
	j  loop !s
loop:
	addi $s0, $s0, -1 !f
	bnez $s0, loop !s
end:
	li $v0, 10
	li $a0, 0
	syscall
	.task main targets=loop create=$s0
	.task loop targets=loop create=$s0
	.task end entry=end
`
	// mslint catches the missing target statically (MS006); assemble
	// without the lint gate so the runtime validation gets its turn.
	res, err := asm.AssembleOpts(src, asm.Options{Mode: asm.ModeMultiscalar, NoLint: true})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMultiscalar(res.Prog, interp.NewSysEnv(), DefaultConfig(4, 1, false))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err == nil || !strings.Contains(err.Error(), "not among its targets") {
		t.Fatalf("expected target-validation error, got %v", err)
	}
}

// TestValidatedNextTaskWithoutDescriptor: fn's return leads to cont,
// which no .task declares. The linter finds only warnings (MS002, MS003,
// MS011), so the program assembles with the gate on; the run must end in
// a NoTaskError naming cont, not a panic, at every unit count.
func TestValidatedNextTaskWithoutDescriptor(t *testing.T) {
	src := `
main:	li $t0, 1
	jal fn !s
cont:	li $v0, 10
	li $a0, 0
	syscall
fn:	addi $t0, $t0, 1
	jr $ra !s
.task main targets=fn create=$t0,$ra
.task fn targets=ret create=$t0
`
	prog, err := asm.Assemble(src, asm.ModeMultiscalar)
	if err != nil {
		t.Fatal(err)
	}
	cont := prog.Symbols["cont"]
	for _, units := range []int{1, 2, 4} {
		m, err := NewMultiscalar(prog, interp.NewSysEnv(), DefaultConfig(units, 1, false))
		if err != nil {
			t.Fatal(err)
		}
		_, err = m.Run()
		var nt *NoTaskError
		if !errors.As(err, &nt) || nt.Entry != cont {
			t.Errorf("%d units: err = %v, want a NoTaskError at cont (0x%x)", units, err, cont)
		}
	}
}

// TestSyscallInsideLoopTasks prints from within each loop task: syscalls
// must serialize at the head and see the speculative memory view, and the
// interleaved output must still be sequential.
func TestSyscallInsideLoopTasks(t *testing.T) {
	src := `
main:
	li $s0, 5
	j  loop !s
loop:
	move $a0, $s0
	li   $v0, 1
	syscall
	li   $a0, ' '
	li   $v0, 11
	syscall
	addi $s0, $s0, -1 !f
	bnez $s0, loop !s
end:
	move $a0, $s0
	li $v0, 1
	syscall
` + exitSeq + `
	.task main targets=loop create=$s0
	.task loop targets=loop,end create=$s0,$a0,$v0
	.task end entry=end
`
	res := runMS(t, src, 8, 2, true)
	if res.Out != "5 4 3 2 1 0" {
		t.Errorf("out = %q", res.Out)
	}
}

// TestWideMatrixOnMemDep runs the memory-recurrence program across the
// full configuration matrix: violations, restarts and validation must
// compose with every issue mode.
func TestWideMatrixOnMemDep(t *testing.T) {
	for _, units := range []int{2, 3, 5, 8, 16} {
		for _, width := range []int{1, 2} {
			for _, ooo := range []bool{false, true} {
				res := runMS(t, memDep, units, width, ooo)
				if res.TasksRetired < 50 {
					t.Errorf("units=%d width=%d ooo=%v: tasks=%d", units, width, ooo, res.TasksRetired)
				}
			}
		}
	}
}

// TestDeterminism: identical configuration + binary must reproduce the
// exact cycle count, output, and squash history (the simulator never
// consults wall-clock time or global randomness).
func TestDeterminism(t *testing.T) {
	p, err := asm.Assemble(memDep, asm.ModeMultiscalar)
	if err != nil {
		t.Fatal(err)
	}
	run := func() *Result {
		m, err := NewMultiscalar(p, interp.NewSysEnv(), DefaultConfig(8, 2, true))
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Cycles != b.Cycles || a.Out != b.Out ||
		a.MemSquashes != b.MemSquashes || a.CtlSquashes != b.CtlSquashes ||
		a.Committed != b.Committed {
		t.Fatalf("non-deterministic: %+v vs %+v", a, b)
	}
}
