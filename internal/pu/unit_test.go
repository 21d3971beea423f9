package pu

import (
	"testing"

	"multiscalar/internal/arb"
	"multiscalar/internal/asm"
	"multiscalar/internal/interp"
	"multiscalar/internal/isa"
	"multiscalar/internal/mem"
	"multiscalar/internal/snapshot"
)

// testExt is the machine around one unit under test: registers always
// ready unless marked pending, a zero-entry ARB (loads read memory, head
// stores write it), one data bank hitting in loadLatency cycles, a
// syscall environment over the memory, and a record of the values sent
// on the ring.
type testExt struct {
	Ext
	Mem      *mem.Memory
	Env      *interp.SysEnv
	Forwards map[isa.Reg]interp.Value
	bus      *mem.Bus
}

func newTestExt(loadLatency int) *testExt {
	x := &testExt{
		Mem:      mem.NewMemory(),
		Env:      interp.NewSysEnv(),
		Forwards: map[isa.Reg]interp.Value{},
		bus:      mem.NewBus(),
	}
	x.Ext = Ext{
		Shared: &Shared{NumUnits: 1, Active: 1, Viol: -1, Backing: x.Mem,
			ARB:    arb.New(1, 1, 0, arb.PolicyStall),
			DCache: mem.NewBankedDCache(1, 64<<10, 64, loadLatency, 4, x.bus)},
		Regs:   &RegFile{},
		ICache: mem.NewCache("icache", 32<<10, 64, 0, 4, x.bus),
	}
	x.Forward = func(_ int, _ uint64, r isa.Reg, v interp.Value) { x.Forwards[r] = v }
	x.Syscall = func(int) (uint32, bool, error) {
		r := &x.Regs.Vals
		return x.Env.Call(x.Mem, r[isa.RegV0].I, r[isa.RegA0].I, r[isa.RegA1].I, r[isa.RegA2].I, r[isa.RegA3].I)
	}
	x.Regs.Vals[isa.RegSP] = interp.IntVal(isa.StackTop)
	x.Regs.Vals[isa.RegGP] = interp.IntVal(isa.DataBase)
	return x
}

// State walks what the unit's timing depends on outside it: the caches
// and the bus.
func (x *testExt) State(c *snapshot.Codec) {
	x.DCache.State(c)
	x.ICache.State(c)
	x.bus.State(c)
}

func assembleMS(t *testing.T, src string) *isa.Program {
	t.Helper()
	p, err := asm.Assemble(src, asm.ModeMultiscalar)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return p
}

// runWholeProgram executes an entire program on a single unit with the
// mock environment (the scalar-machine usage pattern) and returns the
// ext, the cycle count, and the unit.
func runWholeProgram(t *testing.T, src string, cfg Config) (*testExt, uint64, *Unit) {
	t.Helper()
	p := assembleMS(t, src)
	ext := newTestExt(2)
	ext.Mem.WriteBytes(isa.DataBase, p.Data)
	u := New(0, cfg, p, ext.Ext)
	u.Start(p.Entry, 0)
	var now uint64
	for !ext.Env.Exited {
		if now > 2_000_000 {
			t.Fatal("timeout")
		}
		if err := u.Tick(now); err != nil {
			t.Fatalf("tick: %v", err)
		}
		now++
	}
	return ext, now, u
}

const exitSeq = "\n\tli $v0, 10\n\tli $a0, 0\n\tsyscall\n"

func configs() map[string]Config {
	return map[string]Config{
		"1way-inorder": DefaultConfig(1, false),
		"2way-inorder": DefaultConfig(2, false),
		"1way-ooo":     DefaultConfig(1, true),
		"2way-ooo":     DefaultConfig(2, true),
	}
}

func TestWholeProgramMatchesInterp(t *testing.T) {
	srcs := map[string]string{
		"loop": `
main:
	li $t0, 10
	li $t1, 0
loop:
	add $t1, $t1, $t0
	addi $t0, $t0, -1
	bnez $t0, loop
	move $a0, $t1
	li $v0, 1
	syscall` + exitSeq,
		"memory": `
	.data
arr:	.word 5, 3, 8, 1, 9, 2, 7, 4
	.text
main:
	la  $t0, arr
	li  $t1, 8
	li  $t2, 0
sum:
	lw  $t3, 0($t0)
	add $t2, $t2, $t3
	addi $t0, $t0, 4
	addi $t1, $t1, -1
	bnez $t1, sum
	sw  $t2, arr
	move $a0, $t2
	li $v0, 1
	syscall` + exitSeq,
		"call": `
main:
	li  $a0, 6
	jal fact
	move $a0, $v0
	li  $v0, 1
	syscall` + exitSeq + `
fact:
	addi $sp, $sp, -8
	sw   $ra, 4($sp)
	sw   $a0, 0($sp)
	li   $v0, 1
	blez $a0, fdone
	addi $a0, $a0, -1
	jal  fact
	lw   $a0, 0($sp)
	mul  $v0, $v0, $a0
fdone:
	lw   $ra, 4($sp)
	addi $sp, $sp, 8
	jr   $ra
`,
		"float": `
	.data
v:	.double 1.5, 2.5, 3.5, 4.5
	.text
main:
	la $t0, v
	li $t1, 4
	mtc1 $f4, $zero
floop:
	l.d   $f0, 0($t0)
	add.d $f4, $f4, $f0
	addi  $t0, $t0, 8
	addi  $t1, $t1, -1
	bnez  $t1, floop
	mfc1  $a0, $f4
	li $v0, 1
	syscall` + exitSeq,
	}
	for name, src := range srcs {
		for cname, cfg := range configs() {
			t.Run(name+"/"+cname, func(t *testing.T) {
				// Oracle.
				p := assembleMS(t, src)
				env := interp.NewSysEnv()
				om := interp.NewMachine(p, env)
				if err := om.Run(1_000_000); err != nil {
					t.Fatalf("oracle: %v", err)
				}
				ext, _, u := runWholeProgram(t, src, cfg)
				if got, want := ext.Env.Out.String(), env.Out.String(); got != want {
					t.Fatalf("output = %q, want %q", got, want)
				}
				if u.Retired != om.ICount {
					t.Errorf("retired = %d, interp = %d", u.Retired, om.ICount)
				}
				// Final architectural register state matches (excluding $at
				// which pseudo-expansions may use differently... they do not:
				// same binary).
				for r := isa.Reg(1); r < isa.NumRegs; r++ {
					if ext.Regs.Vals[r] != om.Regs[r] {
						t.Errorf("reg %v = %v, want %v", r, ext.Regs.Vals[r], om.Regs[r])
					}
				}
				if !ext.Mem.Equal(om.Mem) {
					t.Error("memory diverged")
				}
			})
		}
	}
}

func TestTaskStopAlways(t *testing.T) {
	src := `
main:
	li $s0, 7
	addi $s0, $s0, 1 !f !s
	li $s1, 99
` + exitSeq
	p := assembleMS(t, src)
	ext := newTestExt(2)
	u := New(0, DefaultConfig(1, false), p, ext.Ext)
	u.Start(p.Entry, 0)
	var now uint64
	for !u.Done() {
		if now > 1000 {
			t.Fatal("task never completed")
		}
		if err := u.Tick(now); err != nil {
			t.Fatal(err)
		}
		now++
	}
	if ext.Regs.Vals[isa.RegS0].I != 8 {
		t.Errorf("s0 = %v", ext.Regs.Vals[isa.RegS0])
	}
	if ext.Regs.Vals[isa.RegS0+1].I == 99 {
		t.Error("executed past stop")
	}
	if u.ExitPC() != p.Entry+2*isa.InstrSize {
		t.Errorf("exitPC = 0x%x", u.ExitPC())
	}
	if v, ok := ext.Forwards[isa.RegS0]; !ok || v.I != 8 {
		t.Errorf("forward of $s0 = %v, %v", v, ok)
	}
	if u.Retired != 2 {
		t.Errorf("retired = %d", u.Retired)
	}
}

func TestTaskStopConditional(t *testing.T) {
	// Task is one loop iteration: backward branch is stop-always (both
	// directions leave the task).
	src := `
main:
	li $s0, 3
loop:
	addi $s0, $s0, -1 !f
	bnez $s0, loop !s
` + exitSeq
	p := assembleMS(t, src)
	loopAddr, _ := p.Symbol("loop")

	ext := newTestExt(2)
	u := New(0, DefaultConfig(1, false), p, ext.Ext)
	ext.Regs.Vals[isa.RegS0] = interp.IntVal(3)
	u.Start(loopAddr, 0)
	var now uint64
	for !u.Done() && now < 1000 {
		if err := u.Tick(now); err != nil {
			t.Fatal(err)
		}
		now++
	}
	if !u.Done() {
		t.Fatal("task never completed")
	}
	if u.Retired != 2 {
		t.Errorf("retired = %d, want 2 (one iteration)", u.Retired)
	}
	if u.ExitPC() != loopAddr {
		t.Errorf("exitPC = 0x%x, want loop 0x%x (taken)", u.ExitPC(), loopAddr)
	}
	if ext.Regs.Vals[isa.RegS0].I != 2 {
		t.Errorf("s0 = %v", ext.Regs.Vals[isa.RegS0])
	}
}

func TestStopNotTakenExit(t *testing.T) {
	src := `
main:
	li $s0, 1
loop:
	addi $s0, $s0, -1 !f
	bnez $s0, loop !snt
done:
	li $s1, 5
` + exitSeq
	p := assembleMS(t, src)
	loopAddr, _ := p.Symbol("loop")
	doneAddr, _ := p.Symbol("done")

	ext := newTestExt(2)
	u := New(0, DefaultConfig(2, true), p, ext.Ext)
	ext.Regs.Vals[isa.RegS0] = interp.IntVal(1)
	u.Start(loopAddr, 0)
	var now uint64
	for !u.Done() && now < 1000 {
		if err := u.Tick(now); err != nil {
			t.Fatal(err)
		}
		now++
	}
	if !u.Done() {
		t.Fatal("never done")
	}
	// s0 becomes 0 -> bnez not taken -> stop fires, exit at done.
	if u.ExitPC() != doneAddr {
		t.Errorf("exitPC = 0x%x, want 0x%x", u.ExitPC(), doneAddr)
	}
	if u.Retired != 2 {
		t.Errorf("retired = %d", u.Retired)
	}
}

func TestReleaseForwardsCurrentValue(t *testing.T) {
	src := `
main:
	li $s0, 42
	release $s0
	li $v0, 0 !s
` + exitSeq
	p := assembleMS(t, src)
	ext := newTestExt(2)
	u := New(0, DefaultConfig(1, false), p, ext.Ext)
	u.Start(p.Entry, 0)
	for now := uint64(0); !u.Done() && now < 1000; now++ {
		if err := u.Tick(now); err != nil {
			t.Fatal(err)
		}
	}
	if v, ok := ext.Forwards[isa.RegS0]; !ok || v.I != 42 {
		t.Errorf("release forwarded %v, %v", v, ok)
	}
}

func TestJrExitUsesRegister(t *testing.T) {
	src := `
main:
	jr $ra !s
` + exitSeq
	p := assembleMS(t, src)
	ext := newTestExt(2)
	ext.Regs.Vals[isa.RegRA] = interp.IntVal(0x1040)
	u := New(0, DefaultConfig(1, false), p, ext.Ext)
	u.Start(p.Entry, 0)
	for now := uint64(0); !u.Done() && now < 100; now++ {
		if err := u.Tick(now); err != nil {
			t.Fatal(err)
		}
	}
	if !u.Done() || u.ExitPC() != 0x1040 || !u.ExitByReturn() {
		t.Errorf("done=%v exit=0x%x byret=%v", u.Done(), u.ExitPC(), u.ExitByReturn())
	}
}

func TestSyscallStallsUntilHandled(t *testing.T) {
	src := `
main:
	li $a0, 5
	li $v0, 1
	syscall
` + exitSeq
	p := assembleMS(t, src)
	ext := newTestExt(2)
	ext.Head = 1 // another unit's: syscalls wait for the head
	u := New(0, DefaultConfig(2, true), p, ext.Ext)
	u.Start(p.Entry, 0)
	var now uint64
	for !ext.Env.Exited && now < 1000 {
		if now == 20 {
			ext.Head = 0
		}
		if err := u.Tick(now); err != nil {
			t.Fatal(err)
		}
		now++
	}
	if !ext.Env.Exited {
		t.Fatal("never exited")
	}
	if now < 20 {
		t.Errorf("finished in %d cycles despite syscall stall", now)
	}
	if ext.Env.Out.String() != "5" {
		t.Errorf("out = %q", ext.Env.Out.String())
	}
}

func TestTwoWayFasterOnIndependentWork(t *testing.T) {
	// Long stretch of independent adds.
	src := "main:\n"
	for i := 0; i < 16; i++ {
		src += "\tadd $t0, $zero, 1\n\tadd $t1, $zero, 2\n\tadd $t2, $zero, 3\n\tadd $t3, $zero, 4\n"
	}
	src += exitSeq
	_, c1, _ := runWholeProgram(t, src, DefaultConfig(1, false))
	_, c2, _ := runWholeProgram(t, src, DefaultConfig(2, false))
	if c2 >= c1 {
		t.Errorf("2-way (%d cycles) not faster than 1-way (%d)", c2, c1)
	}
}

func TestOOOToleratesLoadLatency(t *testing.T) {
	// Two independent long-latency loads, each followed by a dependent
	// use: an out-of-order unit overlaps the loads; an in-order unit
	// serializes at the first dependent add and pays both latencies.
	src := `
	.data
x:	.word 7
y:	.word 9
	.text
main:
	lw  $t8, x
	add $s0, $t8, 1
	lw  $t9, y
	add $s1, $t9, 1
` + exitSeq
	p := assembleMS(t, src)

	run := func(cfg Config) uint64 {
		ext := newTestExt(30)
		ext.Mem.WriteBytes(isa.DataBase, p.Data)
		u := New(0, cfg, p, ext.Ext)
		u.Start(p.Entry, 0)
		var now uint64
		for !ext.Env.Exited && now < 10000 {
			if err := u.Tick(now); err != nil {
				t.Fatal(err)
			}
			now++
		}
		if ext.Regs.Vals[isa.RegS0].I != 8 {
			t.Fatalf("s0 = %v", ext.Regs.Vals[isa.RegS0])
		}
		return now
	}
	cInO := run(DefaultConfig(1, false))
	cOOO := run(DefaultConfig(1, true))
	if cOOO >= cInO {
		t.Errorf("OOO (%d) not faster than in-order (%d) under load miss", cOOO, cInO)
	}
}

func TestDependentChainRespectsLatency(t *testing.T) {
	// mul (4 cycles) chain of 5: at least 20 cycles regardless of width.
	src := `
main:
	li  $t0, 3
	mul $t0, $t0, $t0
	mul $t0, $t0, $t0
	mul $t0, $t0, $t0
	mul $t0, $t0, $t0
	mul $t0, $t0, $t0
` + exitSeq
	_, cycles, _ := runWholeProgram(t, src, DefaultConfig(2, true))
	if cycles < 20 {
		t.Errorf("chain of 5 muls finished in %d cycles", cycles)
	}
}

func TestBranchMispredictionRecovers(t *testing.T) {
	// Data-dependent alternating branch: predictor will mispredict, and
	// results must still be correct.
	src := `
main:
	li $t0, 20
	li $t1, 0
	li $t2, 0
loop:
	andi $t3, $t0, 1
	beqz $t3, even
	addi $t1, $t1, 1
	j next
even:
	addi $t2, $t2, 1
next:
	addi $t0, $t0, -1
	bnez $t0, loop
	mul $a0, $t1, $t2
	li $v0, 1
	syscall
` + exitSeq
	for name, cfg := range configs() {
		t.Run(name, func(t *testing.T) {
			ext, _, _ := runWholeProgram(t, src, cfg)
			if got := ext.Env.Out.String(); got != "100" {
				t.Errorf("out = %q, want 100", got)
			}
		})
	}
}

func TestSquashClearsState(t *testing.T) {
	src := `
main:
	li $s0, 1
	li $s1, 2
	li $s2, 3 !s
` + exitSeq
	p := assembleMS(t, src)
	ext := newTestExt(2)
	u := New(0, DefaultConfig(1, false), p, ext.Ext)
	u.Start(p.Entry, 0)
	u.Tick(0)
	u.Tick(1)
	u.Squash()
	if u.active || u.Done() {
		t.Error("squash did not deactivate")
	}
	// Restart and run to completion.
	u.Start(p.Entry, 10)
	for now := uint64(10); !u.Done() && now < 1000; now++ {
		if err := u.Tick(now); err != nil {
			t.Fatal(err)
		}
	}
	if !u.Done() || u.Retired != 3 {
		t.Errorf("done=%v retired=%d", u.Done(), u.Retired)
	}
}

func TestActivityClassification(t *testing.T) {
	src := `
main:
	li $s0, 1 !s
` + exitSeq
	p := assembleMS(t, src)
	ext := newTestExt(2)
	u := New(0, DefaultConfig(1, false), p, ext.Ext)
	// Inactive: idle.
	u.Tick(0)
	if u.ActCounts[ActIdle] != 1 {
		t.Error("idle not counted")
	}
	u.Start(p.Entry, 1)
	var now uint64 = 1
	for !u.Done() && now < 100 {
		u.Tick(now)
		now++
	}
	// After done, ticks count as wait-retire.
	u.Tick(now)
	u.Tick(now + 1)
	if u.ActCounts[ActWaitRetire] < 2 {
		t.Errorf("wait-retire = %d", u.ActCounts[ActWaitRetire])
	}
	if u.ActCounts[ActCompute] == 0 {
		t.Error("no compute cycles recorded")
	}
}

// TestExtWaitReportsBlockingRegisters pins what the owner's wakeup
// scheduler reads after a Tick: exactly the registers issue found
// unready in the register file, classified as waiting on a predecessor — and
// nothing once the unit has no task, or a squashed task's stale wait
// would keep an idle unit awake.
func TestExtWaitReportsBlockingRegisters(t *testing.T) {
	p := assembleMS(t, `
main:
	add $t0, $s0, $s1
	add $t1, $s2, $t0
`+exitSeq)
	ext := newTestExt(2)
	ext.Regs.Pending = isa.MaskOf((isa.RegS0 + 1), (isa.RegS0 + 2))
	u := New(0, DefaultConfig(2, true), p, ext.Ext)
	u.Start(p.Entry, 0)
	var now uint64
	for ; now < 20; now++ {
		if err := u.Tick(now); err != nil {
			t.Fatal(err)
		}
	}
	// The first add stops at $s1; the second reads $s2 before reaching
	// its in-window producer.
	if u.Progressed() || u.ExtWait() != isa.MaskOf((isa.RegS0+1), (isa.RegS0+2)) || u.lastAct != ActWaitPred {
		t.Fatalf("stalled unit: progressed=%v ext wait=%v activity=%v", u.Progressed(), u.ExtWait(), u.lastAct)
	}
	if u.NextEvent(now) != NoEvent {
		t.Errorf("stalled unit has a next event at %d", u.NextEvent(now))
	}
	u.Squash()
	if err := u.Tick(now); err != nil {
		t.Fatal(err)
	}
	if u.Progressed() || !u.ExtWait().Empty() || u.lastAct != ActIdle {
		t.Fatalf("idle unit: progressed=%v ext wait=%v activity=%v", u.Progressed(), u.ExtWait(), u.lastAct)
	}
}
