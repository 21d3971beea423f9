package pu

import (
	"fmt"
	"math/bits"

	"multiscalar/internal/interp"
	"multiscalar/internal/isa"
)

// issue starts ready instructions, oldest first: strictly in program
// order for in-order units, any ready instruction for out-of-order units.
// Completion is out of order in both cases. It visits the try set only,
// a word of slots at a time.
func (u *Unit) issue(now uint64) error {
	var fuUsed [isa.NumFUClasses]uint8
	olderMem := false // an earlier word holds an unresolved control op or a memory op not yet at the ARB
	for k := range u.win {
		w := &u.win[k]
		try := w[mTry]
		if !u.cfg.OutOfOrder {
			try |= w[mParked] // in-order issue: the oldest dispatched instruction or none
		}
		if s := w[mSys]; s != 0 {
			try &= s ^ (s - 1) // syscalls serialize the window: nothing younger issues
		}
		if u.cfg.OutOfOrder {
			// A memory op behind an older unresolved control op or memory
			// op cannot issue (the case below): of this word's, only the
			// lowest of mCtl|mMem can, and none if an older word holds one.
			// (In-order issue must visit it, to stop there.)
			if olderMem {
				try &^= w[mMem]
			} else if cm := w[mCtl] | w[mMem]; cm != 0 {
				try &^= w[mMem] &^ (cm & -cm)
			}
		}
		for ; try != 0 && u.issuedNow < u.cfg.IssueWidth; try &= try - 1 {
			i := bits.TrailingZeros64(try) // the oldest candidate
			b, p := uint64(1)<<i, k<<6+i
			e, ok := &u.robBuf[p], false
			switch {
			case w[mParked]&b != 0: // in-order, and still parked
			case fuUsed[e.class] >= u.fuCap[e.class]: // no unit of its class left
			case e.flags&bMem != 0 && (olderMem || (w[mCtl]|w[mMem])&(b-1) != 0):
				// Memory operations wait for older branches to resolve
				// (wrong-path loads/stores must never reach the ARB) and issue
				// to the single memory unit in program order.
			default:
				var err error
				if ok, err = u.tryIssue(now, p, e); err != nil {
					return err
				}
			}
			if ok {
				fuUsed[e.class]++
				u.issuedNow++
			} else if !u.cfg.OutOfOrder {
				return nil // in-order issue: stop at the first stalled instruction
			} else if (w[mTry]|w[mParked])&b == 0 {
				return nil // an ARB-overflow squash inside tryIssue restarted this very unit
			}
		}
		if w[mSys] != 0 {
			break
		}
		olderMem = olderMem || w[mCtl]|w[mMem] != 0
	}
	return nil
}

// produced reports whether consumers can take the entry's result from
// the window. A syscall's $v0 is only known at retire, so its consumers
// wait for it to leave the window.
func (p *robEntry) produced() bool { return p.state == stDone && p.flags&bSyscall == 0 }

// readExt reads a register from the register file, a scoreboard: a
// reservation (an accum-mask register a predecessor has not produced) or
// a ring value still in flight is unready, recorded for the activity
// class and the owner's wakeup.
func (u *Unit) readExt(now uint64, r isa.Reg) (interp.Value, bool) {
	rf := u.ext.Regs
	switch {
	case r == isa.RegZero:
		return interp.Value{}, true
	case rf.Pending.Has(r) || rf.ReadyAt[r] > now:
		u.extWait = u.extWait.Set(r)
		return interp.Value{}, false
	}
	return rf.Vals[r], true
}

// producer returns the entry d slots before slot p while it is still in
// the window (d = 0: there never was one).
func (u *Unit) producer(p int, d uint16) *robEntry {
	if j := p - int(d); d != 0 && j >= u.head() {
		return &u.robBuf[j]
	}
	return nil
}

// park takes the entry in slot p, whose producer d slots back has not
// produced, out of the try set until complete sees that producer done.
// Re-attempting it before would fail the same way with no side effect:
// the sources before the blocking one were ready, which is monotonic
// within an activation, so the attempt would stop at the same producer
// without reaching the register file (no extWait bit, hence the same
// activity class). An entry blocked on the register file is never parked:
// its failed read is what the activity class and the owner's wakeup are
// read from.
func (u *Unit) park(p int, e *robEntry, d uint16) {
	e.waitOn = d
	u.move(p, mTry, mParked)
}

// operand fetches source k of the entry in slot p: from the producer bound
// at dispatch while that is still in the window, else from the register
// file (where a retired producer's write put it).
func (u *Unit) operand(now uint64, p int, e *robEntry, k int) (interp.Value, bool) {
	if q := u.producer(p, e.prod[k]); q != nil {
		if !q.produced() {
			u.park(p, e, e.prod[k])
		}
		return q.val, q.produced()
	}
	return u.readExt(now, e.src[k])
}

// SyscallRegs are the registers a syscall reads and syscallDef the one it
// writes. It executes only as the oldest window entry, so the unit reads
// them from the register file.
var SyscallRegs, syscallDef = isa.OpSyscall.Implicit()

// tryIssue starts the entry in slot p if its operands are ready; issue
// has already checked its functional unit and memory order.
func (u *Unit) tryIssue(now uint64, p int, e *robEntry) (bool, error) {
	in := e.instr

	// Gather operands.
	var rsV, rtV interp.Value
	var fcc bool
	if e.flags&bSyscall != 0 {
		if p != u.head() {
			return false, nil // syscall executes only when oldest
		}
		// The syscall reads the values at retire; here they must be ready.
		for _, r := range SyscallRegs {
			if _, ready := u.readExt(now, r); !ready {
				return false, nil
			}
		}
	}
	if n := e.flags & bNsrc; n > 0 {
		var ready bool
		if rsV, ready = u.operand(now, p, e, 0); !ready {
			return false, nil
		}
		if n > 1 {
			if rtV, ready = u.operand(now, p, e, 1); !ready {
				return false, nil
			}
		}
	}
	if e.flags&bReadsFCC != 0 { // bc1t/bc1f
		fcc = u.committedFCC
		if q := u.producer(p, e.fccProd); q != nil {
			if !q.produced() {
				u.park(p, e, e.fccProd)
				return false, nil
			}
			fcc = q.fcc
		}
	}

	// Shared functional units (if the machine has them) are claimed last,
	// once the operation is otherwise ready to start.
	if u.ext.SharedFUs > 0 && (e.class == isa.FUFloat || e.class == isa.FUComplexInt) {
		if !u.ext.claimFU(now, e.class) {
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
	case e.flags&bMem != 0:
		addr := interp.EffAddr(rsV, in.Imm)
		if addr%uint32(in.Op.MemSize()) != 0 {
			return false, fmt.Errorf("pu%d: unaligned %s of 0x%x at 0x%x", u.ID, in.Op, addr, e.addr)
		}
		var v interp.Value
		var done uint64
		var ok bool
		if e.flags&bWritesRd != 0 {
			v, done, ok = u.load(now, in.Op, addr)
		} else {
			done, ok = u.store(now, in.Op, addr, rtV)
		}
		if !ok {
			// ARB overflow: retry next cycle. Each attempt counts (the
			// ARB's Overflows statistic, possibly an overflow squash), so
			// overflow-retry cycles must stay dense — mark them as progress
			// and the wakeup scheduler will not skip them.
			u.progressed = true
			return false, nil
		}
		e.val, e.doneAt, e.memDone = v, done, true
		u.win[p>>6][mMem] &^= 1 << (p & 63)
	case e.flags&bSyscall != 0:
		// Executes at retire; occupy one cycle here.
		e.doneAt = now + 1
	case in.Op == isa.OpRelease:
		// The released value is the register's current value; it is
		// forwarded on the ring at local retire.
		e.val = rsV
		e.doneAt = now + 1
	case e.flags&bCtl != 0 && in.Op.IsJump():
		e.actualNext = in.Target // j, jal
		if e.flags&bNsrc != 0 {
			e.actualNext = rsV.I // jr, jalr
		}
		if e.flags&bWritesRd != 0 { // jal, jalr
			e.val = interp.IntVal(e.addr + isa.InstrSize)
			if e.flags&bNsrc != 0 {
				u.bp.UpdateIndirect(e.addr, rsV.I)
			}
		}
		e.doneAt = now + u.lat[in.Op]
	default:
		res, err := interp.Exec(in.Op, rsV, rtV, in.Imm, fcc)
		if err != nil {
			return false, fmt.Errorf("pu%d at 0x%x: %w", u.ID, e.addr, err)
		}
		e.val = res.Val
		e.fcc, e.setFCC = res.FCC, res.SetFCC
		e.doneAt = now + u.lat[in.Op]
		if e.flags&bCtl != 0 { // conditional branch
			e.taken = res.Taken
			e.actualNext = e.addr + isa.InstrSize
			if res.Taken {
				e.actualNext = in.Target
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
	e.stopHit = in.Stop.Holds(e.taken)

	e.state = stIssued
	u.move(p, mTry, mIssued)
	if e.doneAt < u.nextDone {
		u.nextDone = e.doneAt
	}
	return true, nil
}

// dispatch moves fetched instructions into the window, building each
// entry in place. When the window has slid to the end of robBuf it first
// moves back to the front (queue.go) and every slot number changes, so the
// masks are marked afresh.
func (u *Unit) dispatch(now uint64) {
	for n := 0; n < u.cfg.IssueWidth && len(u.fetchQ) > 0 && len(u.rob) < u.cfg.ROBSize; n++ {
		if len(u.rob) == cap(u.rob) {
			u.rob = u.robBuf[:copy(u.robBuf, u.rob)]
			clear(u.win)
			for p := range u.rob {
				u.mark(p)
			}
		}
		f, i := &u.fetchQ[0], len(u.rob)
		u.rob = u.rob[:i+1]
		// Every field a snapshot walks must be zeroed: the slot is reused.
		u.rob[i] = robEntry{addr: f.addr, instr: f.instr, predictedNext: f.predictedNext}
		u.fetchQ = u.fetchQ[1:] // head pop: the window slides, nothing moves
		u.bind(i)
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

// bind decodes, once, what the later stages need to know about the entry
// at window index i (the youngest): FU class, flag bits, destination and
// source registers and — from the writer tables — the youngest older
// window entry producing each source, which operand then reaches in O(1);
// then it marks the entry in the masks.
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
	if e.flags&bWritesRd != 0 {
		e.dest = in.Rd
	}
	u.noteWriter(e, seq)
	// What dispatch mostly meets is a new operation that touches neither
	// memory nor control: mark would set its try bit and nothing else.
	if p := u.head() + i; e.state == stDispatched && e.flags&(bMem|bCtl|bSyscall) == 0 && in.Stop == isa.StopNone {
		u.win[p>>6][mTry] |= 1 << (p & 63)
	} else {
		u.mark(p)
	}
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
	if e.dest != isa.RegZero {
		u.lastWriter[e.dest] = seq
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
	clear(u.win)
}

// fetch pulls up to four instructions per cycle from the instruction
// cache along the predicted path.
func (u *Unit) fetch(now uint64) {
	in := u.prog.InstrAt(u.pc)
	if in == nil {
		return // waiting for a resolve to redirect (e.g. unpredicted jr)
	}
	group := u.pc &^ 15
	if u.fetchGroup != group {
		u.fetchGroup = group
		u.fetchReady = u.ext.ICache.Access(now, group, false) // icache access: state changed
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
