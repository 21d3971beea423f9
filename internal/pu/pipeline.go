package pu

import (
	"fmt"

	"multiscalar/internal/interp"
	"multiscalar/internal/isa"
)

// fuLimit returns how many operations of a class may start per cycle:
// Section 5.1 gives each unit 1 or 2 simple integer FUs (matching the
// issue width), and 1 each of complex integer, floating point, branch and
// memory — all pipelined, so each accepts one operation per cycle.
func (u *Unit) fuLimit(c isa.FUClass) int {
	if c == isa.FUSimpleInt && u.cfg.IssueWidth >= 2 {
		return 2
	}
	return 1
}

// issue scans the window oldest-first and starts ready instructions:
// strictly in program order for in-order units, any ready instruction for
// out-of-order units. Completion is out of order in both cases.
func (u *Unit) issue(now uint64) error {
	var fuUsed [isa.NumFUClasses]int
	// Facts about the entries older than the scan position: bCtl an
	// unresolved control op, bMem a memory op that has not accessed memory
	// yet, bSyscall a syscall.
	var older uint8

	// u.rob is re-read every iteration: an ARB-overflow squash inside
	// tryIssue may restart this very unit and empty the window.
	for i := 0; i < len(u.rob) && u.issuedNow < u.cfg.IssueWidth; i++ {
		e := &u.rob[i]
		if e.state != stDispatched {
			if e.state != stDone {
				older |= e.flags & bCtl
			}
			older |= e.flags & bSyscall
			continue
		}
		if older&bSyscall != 0 {
			break // syscalls serialize the window: nothing younger issues
		}

		ok := false
		switch {
		case u.stillBlocked(i, e): // parked on a producer
		case fuUsed[e.class] >= u.fuLimit(e.class): // no unit of its class left
		case e.flags&bMem != 0 && older&(bCtl|bMem) != 0:
			// Memory operations wait for older branches to resolve
			// (wrong-path loads/stores must never reach the ARB) and issue
			// to the single memory unit in program order.
		default:
			var err error
			if ok, err = u.tryIssue(now, i, e); err != nil {
				return err
			}
		}
		if ok {
			fuUsed[e.class]++
			u.issuedNow++
		} else if !u.cfg.OutOfOrder {
			break // in-order issue: stop at the first stalled instruction
		}
		older |= e.flags & (bCtl | bSyscall) // just issued at best: unresolved
		if e.flags&bMem != 0 && !e.memDone {
			older |= bMem
		}
	}
	return nil
}

// stillBlocked reports whether the entry's last issue attempt failed on
// an in-window producer that has still not produced. Re-attempting it
// would fail the same way with no side effect: the sources before the
// blocking one were ready, which is monotonic within an activation, so
// the attempt would stop at the same producer without reaching
// Ext.ReadReg (no extWait bit, hence the same activity class).
func (u *Unit) stillBlocked(idx int, e *robEntry) bool {
	if e.waitOn == 0 {
		return false
	}
	if j := idx - int(e.waitOn); j >= 0 && !u.rob[j].produced() {
		return true
	}
	e.waitOn = 0
	return false
}

// produced reports whether consumers can take the entry's result from
// the window. A syscall's $v0 is only known at retire, so its consumers
// wait for it to leave the window.
func (p *robEntry) produced() bool { return p.state == stDone && p.flags&bSyscall == 0 }

// readExt reads a register from the Ext, recording an unready one for
// the activity class and the owner's wakeup.
func (u *Unit) readExt(now uint64, r isa.Reg) (interp.Value, bool) {
	if r == isa.RegZero {
		return interp.Value{}, true
	}
	v, ready := u.ext.ReadReg(now, r)
	if !ready {
		u.extWait = u.extWait.Set(r)
	}
	return v, ready
}

// operand fetches source k of the entry at window index idx: from the
// producer bound at dispatch while that is still in the window, else from
// the Ext (where a retired producer's WriteReg put it).
func (u *Unit) operand(now uint64, idx int, e *robEntry, k int) (interp.Value, bool) {
	if d := e.prod[k]; d != 0 {
		if j := idx - int(d); j >= 0 {
			if p := &u.rob[j]; p.produced() {
				return p.val, true
			}
			e.waitOn = d
			return interp.Value{}, false
		}
	}
	return u.readExt(now, e.src[k])
}

// fccOperand resolves the FP condition flag for bc1t/bc1f.
func (u *Unit) fccOperand(idx int, e *robEntry) (bool, bool) {
	if d := e.fccProd; d != 0 {
		if j := idx - int(d); j >= 0 {
			if p := &u.rob[j]; p.produced() {
				return p.fcc, true
			}
			e.waitOn = d
			return false, false
		}
	}
	return u.committedFCC, true
}

// SyscallRegs are the registers a syscall reads and syscallDef the one it
// writes. It executes only as the oldest window entry, so the unit reads
// them from the Ext.
var SyscallRegs, syscallDef = isa.OpSyscall.Implicit()

// tryIssue starts the entry at window index idx if its operands are
// ready; issue has already checked its functional unit and memory order.
func (u *Unit) tryIssue(now uint64, idx int, e *robEntry) (bool, error) {
	in := e.instr

	// Gather operands.
	var rsV, rtV interp.Value
	var fcc bool
	if e.flags&bSyscall != 0 {
		if idx != 0 {
			return false, nil // syscall executes only when oldest
		}
		// Ext.Syscall reads the values at retire; here they must be ready.
		for _, r := range SyscallRegs {
			if _, ready := u.readExt(now, r); !ready {
				return false, nil
			}
		}
	}
	if n := e.flags & bNsrc; n > 0 {
		var ready bool
		if rsV, ready = u.operand(now, idx, e, 0); !ready {
			return false, nil
		}
		if n > 1 {
			if rtV, ready = u.operand(now, idx, e, 1); !ready {
				return false, nil
			}
		}
	}
	if e.flags&bReadsFCC != 0 {
		v, ready := u.fccOperand(idx, e)
		if !ready {
			return false, nil
		}
		fcc = v
	}

	// Shared functional units (if the machine has them) are claimed last,
	// once the operation is otherwise ready to start.
	if u.shared != nil && (e.class == isa.FUFloat || e.class == isa.FUComplexInt) {
		if !u.shared.ClaimSharedFU(now, e.class) {
			// The outcome depends on the other units' claims this cycle,
			// which the unit cannot see: a lost arbitration is a retry, not
			// a stall with a known end, so it counts as progress and the
			// wakeup scheduler keeps ticking the unit.
			u.progressed = true
			return false, nil
		}
	}

	// Execute.
	switch {
	case in.Op.IsLoad():
		addr := interp.EffAddr(rsV, in.Imm)
		if addr%uint32(in.Op.MemSize()) != 0 {
			return false, fmt.Errorf("pu%d: unaligned %s of 0x%x at 0x%x", u.ID, in.Op, addr, e.addr)
		}
		v, done, ok := u.ext.Load(now, in.Op, addr)
		if !ok {
			// ARB overflow: retry next cycle. Each attempt counts (the
			// ARB's Overflows statistic, possibly an overflow squash), so
			// overflow-retry cycles must stay dense — mark them as progress
			// and the wakeup scheduler will not skip them.
			u.progressed = true
			return false, nil
		}
		e.val = v
		e.doneAt = done
		e.memDone = true
	case in.Op.IsStore():
		addr := interp.EffAddr(rsV, in.Imm)
		if addr%uint32(in.Op.MemSize()) != 0 {
			return false, fmt.Errorf("pu%d: unaligned %s of 0x%x at 0x%x", u.ID, in.Op, addr, e.addr)
		}
		done, ok := u.ext.Store(now, in.Op, addr, rtV)
		if !ok {
			u.progressed = true // overflow retry: see the load case above
			return false, nil
		}
		e.doneAt = done
		e.memDone = true
	case in.Op == isa.OpSyscall:
		// Executes at retire; occupy one cycle here.
		e.doneAt = now + 1
	case in.Op == isa.OpRelease:
		// The released value is the register's current value; it is
		// forwarded on the ring at local retire.
		e.val = rsV
		e.doneAt = now + 1
	case in.Op == isa.OpJ:
		e.actualNext = in.Target
		e.doneAt = now + uint64(u.cfg.Latencies.Of(in.Op))
	case in.Op == isa.OpJal:
		e.actualNext = in.Target
		e.val = interp.IntVal(e.addr + isa.InstrSize)
		e.doneAt = now + uint64(u.cfg.Latencies.Of(in.Op))
	case in.Op == isa.OpJr:
		e.actualNext = rsV.I
		e.doneAt = now + uint64(u.cfg.Latencies.Of(in.Op))
	case in.Op == isa.OpJalr:
		e.actualNext = rsV.I
		e.val = interp.IntVal(e.addr + isa.InstrSize)
		e.doneAt = now + uint64(u.cfg.Latencies.Of(in.Op))
		u.bp.UpdateIndirect(e.addr, rsV.I)
	default:
		res, err := interp.Exec(in.Op, rsV, rtV, in.Imm, fcc)
		if err != nil {
			return false, fmt.Errorf("pu%d at 0x%x: %w", u.ID, e.addr, err)
		}
		e.val = res.Val
		e.fcc, e.setFCC = res.FCC, res.SetFCC
		e.doneAt = now + uint64(u.cfg.Latencies.Of(in.Op))
		if in.Op.IsBranch() {
			e.taken = res.Taken
			if res.Taken {
				e.actualNext = in.Target
			} else {
				e.actualNext = e.addr + isa.InstrSize
			}
			predTaken := e.predictedNext == in.Target && in.Target != e.addr+isa.InstrSize
			if in.Target == e.addr+isa.InstrSize {
				predTaken = res.Taken // degenerate branch: any prediction is right
			}
			u.bp.UpdateTaken(e.addr, res.Taken, predTaken)
		}
	}

	// Resolve actualNext and the stop condition for non-control ops.
	if e.flags&bCtl == 0 {
		e.actualNext = e.addr + isa.InstrSize
	}
	switch in.Stop {
	case isa.StopAlways:
		e.stopHit = true
	case isa.StopTaken:
		e.stopHit = e.taken
	case isa.StopNotTaken:
		e.stopHit = !e.taken
	}

	e.state = stIssued
	if e.doneAt < u.nextDone {
		u.nextDone = e.doneAt
	}
	return true, nil
}

// dispatch moves fetched instructions into the window.
func (u *Unit) dispatch(now uint64) {
	n := 0
	for n < u.cfg.IssueWidth && len(u.fetchQ) > 0 && len(u.rob) < u.cfg.ROBSize {
		f := u.fetchQ[0]
		u.fetchQ = u.fetchQ[1:] // head pop: the window slides, nothing moves
		u.rob = qpush(u.robBuf, u.rob, robEntry{
			addr:          f.addr,
			instr:         f.instr,
			state:         stDispatched,
			predictedNext: f.predictedNext,
		})
		u.bind(len(u.rob) - 1)
		n++
	}
	if n > 0 {
		u.progressed = true
	}
}

// opBinds is bind's per-opcode decode: the isa op table's columns packed
// into robEntry's flag byte, so dispatch reads one entry. An operation
// reads the first NumSources of Rs, Rt; a syscall's five registers are
// read at the window head instead (SyscallRegs).
var opBinds = func() (t [256]struct {
	flags uint8 // the opcode's robEntry.flags
	class isa.FUClass
}) {
	for i := range t {
		op := isa.Op(i)
		if !op.Valid() {
			continue
		}
		flags := uint8(op.NumSources())
		set := func(is bool, bit uint8) {
			if is {
				flags |= bit
			}
		}
		set(op == isa.OpSyscall, bSyscall)
		set(op.IsControl(), bCtl)
		set(op.IsMem(), bMem)
		set(op.ReadsFCC(), bReadsFCC)
		set(op.WritesRd(), bWritesRd)
		set(op.SetsFCC(), bSetsFCC)
		t[i].flags, t[i].class = flags, op.Class()
	}
	return t
}()

// bind decodes, once, what issue needs to know about the entry just
// dispatched at window index i (the youngest): FU class, flag bits,
// source registers and — from the writer tables — the youngest older
// window entry producing each, which operand then reaches in O(1).
func (u *Unit) bind(i int) {
	e := &u.rob[i]
	in, seq := e.instr, u.headSeq+uint64(i)
	e.class, e.flags = opBinds[in.Op].class, opBinds[in.Op].flags
	if n := e.flags & bNsrc; n > 0 {
		e.src[0], e.prod[0] = in.Rs, u.distTo(seq, u.lastWriter[in.Rs])
		if n > 1 {
			e.src[1], e.prod[1] = in.Rt, u.distTo(seq, u.lastWriter[in.Rt])
		}
	}
	if e.flags&bReadsFCC != 0 {
		e.fccProd = u.distTo(seq, u.fccWriter)
	}
	u.noteWriter(e, seq)
}

// distTo is how far back from the entry dispatched as seq the window
// entry writer sits; 0 when writer has left the window or never existed.
func (u *Unit) distTo(seq, writer uint64) uint16 {
	if writer < u.headSeq {
		return 0
	}
	return uint16(seq - writer)
}

// noteWriter records the bound window entry e, dispatched as seq, as the
// youngest writer of its destination register, of $v0 for a syscall, and
// of the FP condition flag.
func (u *Unit) noteWriter(e *robEntry, seq uint64) {
	if rd := e.instr.Rd; e.flags&bWritesRd != 0 && rd != isa.RegZero {
		u.lastWriter[rd] = seq
	}
	if e.flags&bSyscall != 0 {
		u.lastWriter[syscallDef] = seq
	}
	if e.flags&bSetsFCC != 0 {
		u.fccWriter = seq
	}
}

// clearWindow empties the window. Moving the sequence base past the
// discarded entries makes every writer-table entry stale at once.
func (u *Unit) clearWindow() {
	u.headSeq += uint64(len(u.rob))
	u.rob = u.robBuf[:0]
}

// fetch pulls up to four instructions per cycle from the instruction
// cache along the predicted path.
func (u *Unit) fetch(now uint64) {
	if u.fetchStopped || u.done {
		return
	}
	in := u.prog.InstrAt(u.pc)
	if in == nil {
		return // waiting for a resolve to redirect (e.g. unpredicted jr)
	}
	group := u.pc &^ 15
	if u.fetchGroup != group {
		u.fetchGroup = group
		u.fetchReady = u.ext.FetchDone(now, group) // icache access: state changed
		u.progressed = true
	}
	if u.fetchReady > now {
		return
	}

	for fetched := 0; fetched < 4 && len(u.fetchQ) < u.cfg.FetchQSize; fetched++ {
		in := u.prog.InstrAt(u.pc)
		if in == nil {
			return
		}
		addr := u.pc
		f := fetchedInstr{addr: addr, instr: in}
		redirect := false
		stop := false

		switch {
		case in.Op == isa.OpJ:
			f.predictedNext = in.Target
			redirect = true
		case in.Op == isa.OpJal:
			f.predictedNext = in.Target
			u.bp.PushReturn(addr + isa.InstrSize)
			redirect = true
		case in.Op == isa.OpJr:
			f.predictedNext = u.bp.PredictReturn()
			redirect = true
		case in.Op == isa.OpJalr:
			f.predictedNext = u.bp.PredictIndirect(addr)
			u.bp.PushReturn(addr + isa.InstrSize)
			redirect = true
		case in.Op.IsBranch():
			predTaken := u.bp.PredictTaken(addr)
			if predTaken {
				f.predictedNext = in.Target
				redirect = true
			} else {
				f.predictedNext = addr + isa.InstrSize
			}
			switch in.Stop {
			case isa.StopTaken:
				stop = predTaken
			case isa.StopNotTaken:
				stop = !predTaken
			}
		default:
			f.predictedNext = addr + isa.InstrSize
		}
		if in.Stop == isa.StopAlways {
			stop = true
		}

		u.fetchQ = qpush(u.fetchQBuf, u.fetchQ, f)
		u.progressed = true

		if stop {
			u.fetchStopped = true
			return
		}
		u.pc = f.predictedNext
		if redirect || u.pc&^15 != group {
			u.fetchGroup = ^uint32(0) // new group next cycle
			return
		}
	}
}
