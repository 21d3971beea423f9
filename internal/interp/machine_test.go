package interp

import (
	"math"
	"runtime"
	"testing"

	"multiscalar/internal/asm"
	"multiscalar/internal/isa"
	"multiscalar/internal/mem"
)

func runProgram(t *testing.T, src string, maxInstrs uint64) *Machine {
	t.Helper()
	p, err := asm.Assemble(src, asm.ModeScalar)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	env := NewSysEnv()
	m := NewMachine(p, env)
	if err := m.Run(maxInstrs); err != nil {
		t.Fatalf("run: %v", err)
	}
	return m
}

const exitSeq = `
	li $v0, 10
	li $a0, 0
	syscall
`

func TestArithmeticLoop(t *testing.T) {
	// sum 1..10 = 55
	m := runProgram(t, `
main:
	li $t0, 10
	li $t1, 0
loop:
	add $t1, $t1, $t0
	addi $t0, $t0, -1
	bnez $t0, loop
	move $a0, $t1
	li $v0, 1
	syscall
`+exitSeq, 10000)
	if got := m.Env.Out.String(); got != "55" {
		t.Errorf("out = %q, want 55", got)
	}
	if m.Env.ExitCode != 0 || !m.Env.Exited {
		t.Errorf("exit = %d/%v", m.Env.ExitCode, m.Env.Exited)
	}
}

func TestFunctionCall(t *testing.T) {
	// compute 6! recursively
	m := runProgram(t, `
main:
	li  $a0, 6
	jal fact
	move $a0, $v0
	li  $v0, 1
	syscall
`+exitSeq+`
fact:
	addi $sp, $sp, -8
	sw   $ra, 4($sp)
	sw   $a0, 0($sp)
	li   $v0, 1
	blez $a0, fact_done
	addi $a0, $a0, -1
	jal  fact
	lw   $a0, 0($sp)
	mul  $v0, $v0, $a0
fact_done:
	lw   $ra, 4($sp)
	addi $sp, $sp, 8
	jr   $ra
`, 100000)
	if got := m.Env.Out.String(); got != "720" {
		t.Errorf("out = %q, want 720", got)
	}
}

func TestMemoryOps(t *testing.T) {
	m := runProgram(t, `
	.data
arr:	.word 5, 3, 8, 1
n:	.word 4
	.text
main:
	la  $t0, arr
	lw  $t1, n
	li  $t2, 0     ; sum
sumloop:
	lw  $t3, 0($t0)
	add $t2, $t2, $t3
	addi $t0, $t0, 4
	addi $t1, $t1, -1
	bnez $t1, sumloop
	move $a0, $t2
	li $v0, 1
	syscall
`+exitSeq, 10000)
	if got := m.Env.Out.String(); got != "17" {
		t.Errorf("out = %q, want 17", got)
	}
}

func TestByteAndHalfOps(t *testing.T) {
	m := runProgram(t, `
	.data
buf:	.byte 0xff, 0x7f, 0
	.text
main:
	la  $t0, buf
	lb  $t1, 0($t0)    ; -1 sign extended
	lbu $t2, 0($t0)    ; 255
	lb  $t3, 1($t0)    ; 127
	add $a0, $t1, $t2  ; 254
	add $a0, $a0, $t3  ; 381
	sb  $a0, 2($t0)    ; low byte 125
	lbu $t4, 2($t0)
	add $a0, $a0, $t4  ; 506
	li $v0, 1
	syscall
`+exitSeq, 1000)
	if got := m.Env.Out.String(); got != "506" {
		t.Errorf("out = %q, want 506", got)
	}
}

func TestPrintString(t *testing.T) {
	m := runProgram(t, `
	.data
msg:	.asciiz "hello\n"
	.text
main:
	la $a0, msg
	li $v0, 4
	syscall
`+exitSeq, 1000)
	if got := m.Env.Out.String(); got != "hello\n" {
		t.Errorf("out = %q", got)
	}
}

func TestSbrk(t *testing.T) {
	m := runProgram(t, `
main:
	li $a0, 16
	li $v0, 9
	syscall
	move $t0, $v0    ; first block
	li $a0, 16
	li $v0, 9
	syscall          ; second block
	sub $a0, $v0, $t0
	li $v0, 1
	syscall
`+exitSeq, 1000)
	if got := m.Env.Out.String(); got != "16" {
		t.Errorf("out = %q, want 16", got)
	}
}

func TestFloatingPoint(t *testing.T) {
	m := runProgram(t, `
	.data
a:	.double 1.5
b:	.double 2.25
	.text
main:
	l.d   $f0, a
	l.d   $f2, b
	add.d $f4, $f0, $f2   ; 3.75
	mul.d $f4, $f4, $f2   ; 8.4375
	c.lt.d $f0, $f2
	bc1f  bad
	mfc1  $a0, $f4        ; trunc -> 8
	li $v0, 1
	syscall
	b out
bad:
	li $a0, -1
	li $v0, 1
	syscall
out:
`+exitSeq, 1000)
	if got := m.Env.Out.String(); got != "8" {
		t.Errorf("out = %q, want 8", got)
	}
}

func TestMtc1Conversion(t *testing.T) {
	m := runProgram(t, `
main:
	li    $t0, 7
	mtc1  $f0, $t0
	mtc1  $f2, $t0
	mul.d $f4, $f0, $f2   ; 49.0
	mfc1  $a0, $f4
	li $v0, 1
	syscall
`+exitSeq, 1000)
	if got := m.Env.Out.String(); got != "49" {
		t.Errorf("out = %q, want 49", got)
	}
}

func TestDivRem(t *testing.T) {
	m := runProgram(t, `
main:
	li  $t0, -17
	li  $t1, 5
	div $t2, $t0, $t1   ; -3
	rem $t3, $t0, $t1   ; -2
	mul $a0, $t2, $t3   ; 6
	li $v0, 1
	syscall
`+exitSeq, 1000)
	if got := m.Env.Out.String(); got != "6" {
		t.Errorf("out = %q, want 6", got)
	}
}

func TestDivByZeroTraps(t *testing.T) {
	p, err := asm.Assemble("main:\n\tli $t0, 1\n\tli $t1, 0\n\tdiv $t2, $t0, $t1\n"+exitSeq, asm.ModeScalar)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine(p, NewSysEnv())
	if err := m.Run(100); err == nil {
		t.Error("expected divide-by-zero trap")
	}
}

func TestUnalignedTraps(t *testing.T) {
	p, err := asm.Assemble("main:\n\tli $t0, 0x10000001\n\tlw $t1, 0($t0)\n"+exitSeq, asm.ModeScalar)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine(p, NewSysEnv())
	if err := m.Run(100); err == nil {
		t.Error("expected unaligned trap")
	}
}

func TestRunawayLimit(t *testing.T) {
	p, err := asm.Assemble("main:\n\tj main\n", asm.ModeScalar)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine(p, NewSysEnv())
	if err := m.Run(100); err == nil {
		t.Error("expected instruction-limit error")
	}
	// The bound is exact (checkpoints and the sampler's warming pass
	// stop at it), a later Run resumes from it, and RunTo one past the
	// count retires exactly one more instruction.
	for _, bound := range []uint64{100, 101, 250} {
		if err := m.Run(bound); err == nil || m.ICount != bound {
			t.Errorf("Run(%d): err %v at ICount %d", bound, err, m.ICount)
		}
	}
	if err := m.RunTo(m.ICount + 1); err != nil || m.ICount != 251 {
		t.Errorf("RunTo(ICount+1): err %v, ICount %d, want 251", err, m.ICount)
	}
}

func TestZeroRegisterImmutable(t *testing.T) {
	m := runProgram(t, `
main:
	li   $zero, 99
	addi $zero, $zero, 5
	move $a0, $zero
	li $v0, 1
	syscall
`+exitSeq, 1000)
	if got := m.Env.Out.String(); got != "0" {
		t.Errorf("out = %q, want 0", got)
	}
}

func TestICountMatchesExecution(t *testing.T) {
	m := runProgram(t, `
main:
	li $t0, 3        ; 1
loop:
	addi $t0, $t0, -1 ; 3x
	bnez $t0, loop    ; 3x
`+exitSeq, 1000) // 3 more
	if m.ICount != 1+3+3+3 {
		t.Errorf("ICount = %d, want 10", m.ICount)
	}
	if m.BranchCount != 3 {
		t.Errorf("BranchCount = %d, want 3", m.BranchCount)
	}
}

func TestMultiscalarBinaryRunsIdentically(t *testing.T) {
	// The interpreter ignores annotations and executes release as a no-op,
	// so a multiscalar binary with extra release instructions produces the
	// same output with a higher instruction count.
	src := `
main:
	li $s0, 5 !f
	li $s1, 0 !f
	j  loop !s
loop:
	add $s1, $s1, $s0 !f
	.msonly release $s1
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
	pm, err := asm.Assemble(src, asm.ModeMultiscalar)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := asm.Assemble(src, asm.ModeScalar)
	if err != nil {
		t.Fatal(err)
	}
	envM, envS := NewSysEnv(), NewSysEnv()
	mm, ms := NewMachine(pm, envM), NewMachine(ps, envS)
	if err := mm.Run(1000); err != nil {
		t.Fatal(err)
	}
	if err := ms.Run(1000); err != nil {
		t.Fatal(err)
	}
	if envM.Out.String() != envS.Out.String() {
		t.Errorf("outputs differ: %q vs %q", envM.Out.String(), envS.Out.String())
	}
	if mm.ICount <= ms.ICount {
		t.Errorf("multiscalar ICount %d should exceed scalar %d", mm.ICount, ms.ICount)
	}
}

func TestJalrIndirectCall(t *testing.T) {
	m := runProgram(t, `
main:
	la   $t0, fn
	jalr $t0
	move $a0, $v0
	li $v0, 1
	syscall
`+exitSeq+`
fn:
	li $v0, 42
	jr $ra
`, 1000)
	if got := m.Env.Out.String(); got != "42" {
		t.Errorf("out = %q, want 42", got)
	}
}

func TestShiftOps(t *testing.T) {
	m := runProgram(t, `
main:
	li   $t0, -8
	sra  $t1, $t0, 1    ; -4
	srl  $t2, $t0, 28   ; 15
	sll  $t3, $t2, 2    ; 60
	li   $t4, 2
	srav $t5, $t0, $t4  ; -2
	add  $a0, $t1, $t2
	add  $a0, $a0, $t3
	add  $a0, $a0, $t5  ; -4+15+60-2 = 69
	li $v0, 1
	syscall
`+exitSeq, 1000)
	if got := m.Env.Out.String(); got != "69" {
		t.Errorf("out = %q, want 69", got)
	}
}

func TestFinalRegisterState(t *testing.T) {
	m := runProgram(t, `
main:
	li $s0, 123
	li $s1, 456
`+exitSeq, 100)
	if m.Regs[isa.RegS0].I != 123 || m.Regs[isa.RegS0+1].I != 456 {
		t.Errorf("regs = %v %v", m.Regs[isa.RegS0], m.Regs[isa.RegS0+1])
	}
}

func TestSyscallErrors(t *testing.T) {
	// Unknown syscall code traps.
	p, err := asm.Assemble("main:\n\tli $v0, 99\n\tsyscall\n"+exitSeq, asm.ModeScalar)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine(p, NewSysEnv())
	if err := m.Run(100); err == nil {
		t.Error("unknown syscall should trap")
	}
}

func TestPCOutsideText(t *testing.T) {
	p, err := asm.Assemble("main:\n\tli $t0, 0x9000\n\tjr $t0\n", asm.ModeScalar)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine(p, NewSysEnv())
	if err := m.Run(100); err == nil {
		t.Error("jump outside text should trap")
	}
}

func TestUnalignedStoreTraps(t *testing.T) {
	p, err := asm.Assemble("main:\n\tli $t0, 0x10000002\n\tsw $t1, 0($t0)\n"+exitSeq, asm.ModeScalar)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine(p, NewSysEnv())
	if err := m.Run(100); err == nil {
		t.Error("unaligned store should trap")
	}
}

func TestPrintStringUnterminated(t *testing.T) {
	env := NewSysEnv()
	mem := newZerolessMemory()
	if _, _, err := env.Call(mem, SysPrintString, 0, 0, 0, 0); err == nil {
		t.Error("unterminated string should error")
	}
}

// zerolessMemory returns nonzero for every byte, so print_string never
// terminates.
type zerolessMemory struct{}

func newZerolessMemory() *zerolessMemory        { return &zerolessMemory{} }
func (z *zerolessMemory) Byte(addr uint32) byte { return 'x' }

func TestHeapEnd(t *testing.T) {
	env := NewSysEnv()
	start := env.heapEnd
	env.Call(nil, SysSbrk, 100, 0, 0, 0)
	if env.heapEnd != start+100 {
		t.Errorf("heap end = %#x", env.heapEnd)
	}
}

func TestValueString(t *testing.T) {
	if IntVal(5).String() != "5" || FPVal(1.5).String() != "1.5" {
		t.Errorf("value strings: %q %q", IntVal(5).String(), FPVal(1.5).String())
	}
}

// TestProgramImageSharesData: a program's image points into its Data
// instead of copying it. The image of a 64-page data segment (built for
// a fresh Clone, which derives its own) allocates less than two pages —
// the final partial page and the page map — where a copy would take 65,
// and a machine over it reads the data and zeros past its end.
// TotalAlloc counts the whole process, so anything the runtime or another
// goroutine allocates during a measurement adds to it: the figure held to
// the bound is the least of a few, each over a fresh clone.
func TestProgramImageSharesData(t *testing.T) {
	p, err := asm.Assemble(".data\nbuf:\t.space 262150\n\t.byte 7\n.text\nmain:\n\tsyscall\n", asm.ModeScalar)
	if err != nil {
		t.Fatal(err)
	}
	var (
		q             *isa.Program
		img           *mem.Image
		before, after runtime.MemStats
		got           uint64 = math.MaxUint64
	)
	for range 5 {
		q = p.Clone()
		runtime.ReadMemStats(&before)
		img = ProgramImage(q)
		runtime.ReadMemStats(&after)
		got = min(got, after.TotalAlloc-before.TotalAlloc)
	}
	if got >= 2*4096 {
		t.Errorf("the image of %d data bytes allocated %d bytes", len(q.Data), got)
	}
	m := NewMachine(q, NewSysEnv())
	if m.Mem.Byte(isa.DataBase+262150) != 7 || m.Mem.Byte(isa.DataBase+262151) != 0 {
		t.Error("the machine does not read the data and zeros past it")
	}
	if ProgramImage(q) != img || ProgramImage(p) == img {
		t.Error("the image is not the clone's own, built once")
	}
}
