package pu

import (
	"fmt"
	"math/rand"
	"testing"

	"multiscalar/internal/interp"
	"multiscalar/internal/isa"
	"multiscalar/internal/snapshot"
)

// refProducer is the backward window scan the dispatch-time bindings
// replaced: the distance from window index idx back to the youngest
// older entry writing r, 0 when there is none.
func refProducer(u *Unit, idx int, r isa.Reg) uint16 {
	if r == isa.RegZero {
		return 0
	}
	for j := idx - 1; j >= 0; j-- {
		p := u.rob[j].instr
		if p.Dest() == r || (p.Op == isa.OpSyscall && r == isa.RegV0) {
			return uint16(idx - j)
		}
	}
	return 0
}

// refFCCProducer is the same scan for the FP condition flag.
func refFCCProducer(u *Unit, idx int) uint16 {
	for j := idx - 1; j >= 0; j-- {
		if u.rob[j].instr.Op.SetsFCC() {
			return uint16(idx - j)
		}
	}
	return 0
}

// checkBindings compares every window entry's binding with what the isa
// package and the reference scans say about it now. A bound producer
// that has slid out of the window (retired) counts as none, which is
// how operand reads it.
func checkBindings(t *testing.T, u *Unit, step int, what string) {
	t.Helper()
	for i := range u.rob {
		inWindow := func(d uint16) uint16 {
			if int(d) > i {
				return 0
			}
			return d
		}
		e := &u.rob[i]
		in := e.instr
		fail := func(format string, args ...interface{}) {
			t.Helper()
			t.Fatalf("step %d (%s): window[%d of %d] %v: "+format,
				append([]interface{}{step, what, i, len(u.rob), in}, args...)...)
		}
		if e.class != in.Op.Class() {
			fail("class %v, want %v", e.class, in.Op.Class())
		}
		if got, want := e.flags&bCtl != 0, in.Op.IsControl(); got != want {
			fail("ctl bit %v", got)
		}
		if got, want := e.flags&bMem != 0, in.Op.IsMem(); got != want {
			fail("mem bit %v", got)
		}
		if got, want := e.flags&bSyscall != 0, in.Op == isa.OpSyscall; got != want {
			fail("syscall bit %v", got)
		}
		srcs, n := in.SourceRegs()
		if in.Op == isa.OpSyscall {
			n = 0 // read from the register file at the window head, not bound
		}
		if int(e.flags&bNsrc) != n {
			fail("%d sources bound, want %d", e.flags&bNsrc, n)
		}
		for k := 0; k < n; k++ {
			if e.src[k] != srcs[k] {
				fail("src[%d] = %v, want %v", k, e.src[k], srcs[k])
			}
			if want := refProducer(u, i, srcs[k]); inWindow(e.prod[k]) != want {
				fail("producer of %v bound %d back, reference scan says %d", srcs[k], e.prod[k], want)
			}
		}
		if got, want := e.flags&bReadsFCC != 0, in.ReadsFCC(); got != want {
			fail("reads-FCC bit %v", got)
		}
		if in.ReadsFCC() {
			if want := refFCCProducer(u, i); inWindow(e.fccProd) != want {
				fail("FCC producer bound %d back, reference scan says %d", e.fccProd, want)
			}
		}
	}
}

// TestBindingsMatchReferenceScan walks a unit's window through random
// ticks, dispatches, head retirements, mis-speculation flushes, task
// restarts and snapshot round trips over a program of random
// instructions, checking after every step that each entry's dispatch-time
// binding names exactly the producers a backward scan of the window
// finds, and that the window masks are what a scan of the entries says
// (checkWindow). Window sizes cross the mask word boundary (a 16-entry
// window has a 64-slot buffer, one word) and every size compacts.
func TestBindingsMatchReferenceScan(t *testing.T) {
	var ops []isa.Op
	for i := 0; i < 256; i++ {
		if op := isa.Op(i); op.Valid() {
			ops = append(ops, op)
		}
	}
	seed := int64(0)
	for _, robSize := range []int{1, 4, 16, 40, 64, 65, 200} {
		for _, ooo := range []bool{false, true} {
			for width := 1; width <= 2; width++ {
				seed++
				t.Run(fmt.Sprintf("rob%d/ooo=%v/%dway", robSize, ooo, width), func(t *testing.T) {
					walkWindow(t, ops, robSize, ooo, width, seed)
				})
			}
		}
	}
}

func walkWindow(t *testing.T, ops []isa.Op, robSize int, ooo bool, width int, seed int64) {
	r := rand.New(rand.NewSource(seed))
	// A small register pool makes producer chains (and $v0 traffic
	// around syscalls) dense.
	pool := []isa.Reg{isa.RegZero, isa.RegV0, isa.RegA0, isa.RegT0, isa.RegT0 + 1, isa.F(0), isa.F(2)}
	reg := func() isa.Reg { return pool[r.Intn(len(pool))] }
	prog := &isa.Program{Entry: isa.TextBase, Text: make([]isa.Instr, 2048)}
	for i := range prog.Text {
		in := isa.Instr{Op: ops[r.Intn(len(ops))], Rd: reg(), Rs: reg(), Rt: reg(),
			Imm: int32(8 * r.Intn(8)), Target: isa.TextBase + uint32(r.Intn(len(prog.Text)))*isa.InstrSize}
		in.Fwd = r.Intn(6) == 0
		if r.Intn(40) == 0 {
			in.Stop = isa.StopCond(1 + r.Intn(3))
		}
		prog.Text[i] = in
	}

	cfg := DefaultConfig(width, ooo)
	cfg.ROBSize = robSize
	ext := newTestExt(5)
	u := New(0, cfg, prog, ext.Ext)
	// start begins a task with the (empty) window near the end of its
	// buffer, where enough retirements leave it, so that it soon has to
	// slide back to the front.
	start := func(entry uint32, now uint64) {
		u.Start(entry, now)
		n := len(u.robBuf) - r.Intn(min(len(u.robBuf), 8)+1)
		u.rob = u.robBuf[n:n]
	}
	start(prog.Entry, 0)
	pc := prog.Entry
	compactions, parkedSeen := 0, 0

	for step := 0; step < 3000; step++ {
		what, wasAtEnd := "", len(u.rob) == cap(u.rob) && len(u.rob) > 0
		switch k := r.Intn(100); {
		case k < 45:
			// A real cycle. A random program soon divides by zero, leaves
			// the text or ends its task: start over somewhere else.
			what = "tick"
			ext.Regs.Pending = isa.RegMask(0)
			if r.Intn(4) == 0 {
				ext.Regs.Pending = isa.MaskOf(reg())
			}
			ext.Regs.Vals[isa.RegV0] = interp.IntVal(1) // a retiring syscall prints $a0
			if err := u.Tick(uint64(step)); err != nil || u.Done() || prog.InstrAt(u.pc) == nil || ext.Env.Exited {
				what = "tick, restart"
				ext.Env.Exited = false
				u.Squash()
				start(prog.Entry+uint32(r.Intn(len(prog.Text)))*isa.InstrSize, uint64(step))
			}
		case k < 65:
			what = "dispatch"
			if len(u.rob) == cfg.ROBSize {
				continue
			}
			in := prog.InstrAt(pc)
			if in == nil {
				pc = prog.Entry
				continue
			}
			u.fetchQ = qpush(u.fetchQBuf, u.fetchQ[:0], fetchedInstr{addr: pc, instr: in, predictedNext: pc + isa.InstrSize})
			u.dispatch(uint64(step))
			pc += isa.InstrSize
		case k < 80:
			what = "retire"
			if len(u.rob) == 0 {
				continue
			}
			u.rob[0].state = stDone // forced, not completed: its consumers forget they parked
			for i := range u.rob {
				u.rob[i].waitOn = 0
			}
			u.remark()
			ext.Regs.Vals[isa.RegV0] = interp.IntVal(1)
			if err := u.retire(uint64(step)); err != nil {
				t.Fatal(err)
			}
			ext.Env.Exited = false
		case k < 88:
			what = "flush"
			if len(u.rob) == 0 {
				continue
			}
			u.flushAfter(u.head()+r.Intn(len(u.rob)), pc, false)
		case k < 92:
			what = "restart"
			u.Squash()
			start(prog.Entry, uint64(step))
		default:
			what = "snapshot round trip"
			data, err := snapshot.Save(snapshot.KindMultiscalar, uint64(step), u.State)
			if err != nil {
				t.Fatal(err)
			}
			u = New(0, cfg, prog, ext.Ext)
			if err := snapshot.Load(data, snapshot.KindMultiscalar, u.State); err != nil {
				t.Fatal(err)
			}
		}
		if wasAtEnd && u.head() == 0 && len(u.rob) > 1 {
			compactions++
		}
		if u.any(mParked) {
			parkedSeen++
		}
		checkBindings(t, u, step, what)
		if err := u.checkWindow(); err != nil {
			t.Fatalf("step %d (%s): %v", step, what, err)
		}
	}
	if compactions == 0 && robSize > 1 {
		t.Error("the window never slid back to the front of its buffer")
	}
	if parkedSeen == 0 && robSize > 1 {
		t.Error("no entry was ever parked")
	}
}

// TestRestoredUnitContinuesIdentically checkpoints a unit mid-run at a
// cycle where the window holds an entry parked on an in-window producer,
// an issued one, and a completed one whose forward waits behind an
// unresolved branch; restores the snapshot into a fresh unit (bindings and
// masks re-derived, parked entries forgotten) and runs both to the end in
// lockstep: every cycle must be classified the same and retire the same
// instructions.
func TestRestoredUnitContinuesIdentically(t *testing.T) {
	src := `
	.data
v:	.word 3, 5, 7, 11
	.text
main:
	li  $s0, 6
	la  $s1, v
loop:
	lw  $t0, 0($s1)
	mul $t1, $t0, $t0
	mul $t2, $t1, $t0
	beqz $t2, skip
	addi $s3, $s3, 1 !f
skip:
	lw  $t3, 4($s1)
	mul $t4, $t3, $t2
	add $s2, $s2, $t4
	add $s2, $s2, $t1
	addi $s0, $s0, -1
	bnez $s0, loop
	move $a0, $s2
	li $v0, 1
	syscall
` + exitSeq
	p := assembleMS(t, src)
	cfg := DefaultConfig(2, true)
	newExt := func() *testExt {
		ext := newTestExt(9)
		ext.Mem.WriteBytes(isa.DataBase, p.Data)
		return ext
	}
	// The unit and what its timing depends on outside it.
	walk := func(u *Unit, x *testExt) func(*snapshot.Codec) {
		return func(c *snapshot.Codec) { u.State(c); x.State(c) }
	}

	extA := newExt()
	a := New(0, cfg, p, extA.Ext)
	a.Start(p.Entry, 0)
	var now uint64
	for ; now < 40 || !(a.any(mParked) && a.any(mIssued) && a.any(mFwd)); now++ {
		if now > 1000 {
			t.Fatal("no cycle with a parked, an issued and a forward-pending entry in the window")
		}
		if err := a.Tick(now); err != nil {
			t.Fatal(err)
		}
	}

	data, err := snapshot.Save(snapshot.KindMultiscalar, now, walk(a, extA))
	if err != nil {
		t.Fatal(err)
	}
	extB := newExt()
	*extB.Regs = *extA.Regs
	b := New(0, cfg, p, extB.Ext)
	if err := snapshot.Load(data, snapshot.KindMultiscalar, walk(b, extB)); err != nil {
		t.Fatal(err)
	}

	for ; !extA.Env.Exited; now++ {
		if now > 100_000 {
			t.Fatal("timeout")
		}
		if err := a.Tick(now); err != nil {
			t.Fatal(err)
		}
		if err := b.Tick(now); err != nil {
			t.Fatal(err)
		}
		if err := b.checkWindow(); err != nil {
			t.Fatalf("cycle %d: restored unit: %v", now, err)
		}
		if a.lastAct != b.lastAct || a.Retired != b.Retired || len(a.rob) != len(b.rob) ||
			a.progressed != b.progressed || a.ActCounts != b.ActCounts {
			t.Fatalf("cycle %d: restored unit diverged: activity %v/%v retired %d/%d window %d/%d",
				now, a.lastAct, b.lastAct, a.Retired, b.Retired, len(a.rob), len(b.rob))
		}
	}
	if extB.Forwards[isa.RegS0+3] != extA.Forwards[isa.RegS0+3] {
		t.Errorf("restored unit last forwarded $s3 = %v, the original %v", extB.Forwards[isa.RegS0+3], extA.Forwards[isa.RegS0+3])
	}
	if !extB.Env.Exited || extA.Regs.Vals != extB.Regs.Vals || extA.Env.Out.String() != extB.Env.Out.String() {
		t.Fatalf("restored unit finished differently: out %q vs %q", extB.Env.Out.String(), extA.Env.Out.String())
	}
}
