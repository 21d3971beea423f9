package core

import (
	"fmt"
	"math"
	"math/bits"

	"multiscalar/internal/arb"
	"multiscalar/internal/interp"
	"multiscalar/internal/isa"
	"multiscalar/internal/pu"
	"multiscalar/internal/trace"
)

// assign performs at most one task assignment per cycle: choose the next
// task (known exactly after a validation, or predicted from the youngest
// assigned task's descriptor), fetch its descriptor through the task
// descriptor cache, and start it on the unit after the current tail. Run
// calls it while a unit is free and the terminal task has not been seen.
func (m *Multiscalar) assign(now uint64) error {
	// A descriptor fetch in flight?
	if m.pending.valid {
		if now < m.pending.ready {
			return nil
		}
		m.doAssign(m.pending.entry, m.pending.desc, now)
		m.pending.valid = false
		return nil
	}

	var entry uint32
	switch {
	case m.forcedValid:
		entry = m.forced
	case m.Active == 0:
		return nil // nothing to predict from; wait for a forced target
	default:
		tail := m.UnitAt(m.Active - 1)
		last := m.tasks[tail]
		if last.predMade {
			return nil // successor prediction already pending a bad target
		}
		var ok bool
		entry, ok = m.predictSuccessor(last)
		if !ok {
			return nil
		}
		if m.sink != nil {
			m.sink.Emit(trace.Event{Cycle: now, Kind: trace.KTaskPredict, Unit: int8(tail),
				Task: last.seq, Arg: entry})
		}
	}

	desc := m.taskAt(entry)
	if desc == nil {
		if m.forcedValid {
			// A validated actual successor must be a task: anything else
			// is a partitioning bug the program carries.
			return &NoTaskError{Entry: entry}
		}
		// Mispredicted into a non-task address (stale return address):
		// leave the slot empty; validation of the predecessor will force
		// the correct target and squash.
		return nil
	}
	ready := now
	if desc != m.implicit { // which is not in the binary: nothing to fetch
		ready = m.descCache.Access(now, entry, false)
	}
	if ready > now {
		m.pending = pendingAssign{valid: true, ready: ready, entry: entry, desc: desc}
		m.progress = true // descriptor fetch started; nextWake watches pending.ready
		return nil
	}
	m.doAssign(entry, desc, now)
	return nil
}

// NoTaskError is a run whose validated next task is an address with no
// task descriptor: a task's actual exit leads somewhere the program's
// annotations never declared a task (a return to a point no .task names,
// say). The linter reports such programs as warnings only (MS011).
type NoTaskError struct {
	Entry uint32 // the validated successor address
}

func (e *NoTaskError) Error() string {
	return fmt.Sprintf("core: validated next task 0x%x has no descriptor", e.Entry)
}

// predictSuccessor chooses the next task after `last`, recording the
// bookkeeping needed to validate, train, and recover.
//
// Progress marking: the no-prediction failure path (empty return stack
// without a dynamic Predict call) is idempotent — re-running it next
// cycle touches nothing — so it alone does not keep the wakeup scheduler
// ticking densely. Everything else here mutates machine state (the
// terminal latch, the predictor's histories via Predict, the RAS and the
// predMade bookkeeping on success) and must mark progress.
func (m *Multiscalar) predictSuccessor(last *taskState) (uint32, bool) {
	desc := last.desc
	if len(desc.Targets) == 0 {
		m.terminal = true
		m.progress = true
		return 0, false
	}
	last.histSnap = m.predictor.Snapshot()
	last.rasSnap = m.ras.Snapshot()
	last.histBefore = m.predictor.History(desc.Entry)

	idx := 0
	counts := len(desc.Targets) > 1
	if counts && !m.cfg.StaticPredict {
		idx = m.predictor.Predict(desc.Entry) % len(desc.Targets)
		m.progress = true // Predict shifts histories and emits trace events
	}
	entry := m.ras.Follow(desc, idx)
	if entry == 0 {
		// Empty return stack: cannot guess. Wait for validation.
		m.ras.Restore(last.rasSnap)
		return 0, false
	}

	last.predMade = true
	last.predCounts = counts
	last.predIdx = idx
	last.predEntry = entry
	m.progress = true
	return entry, true
}

// startUnit (re)starts unit q on its task at cycle at; squashUnit discards
// whatever it was doing. Either changes the unit's next Tick, so both wake
// it — at once, not at the end of the cycle: an ARB-overflow squash restarts
// the tail from inside an older unit's Tick, before its slot in the sweep.
func (m *Multiscalar) startUnit(q int, at uint64) {
	m.units[q].Start(m.tasks[q].entry, at)
	m.counted[q] = at
	m.wakeBy(q, 0)
}

func (m *Multiscalar) squashUnit(q int) {
	m.units[q].Squash()
	m.wakeBy(q, 0)
}

func (m *Multiscalar) doAssign(entry uint32, desc *isa.TaskDescriptor, now uint64) {
	m.progress = true
	unit := m.UnitAt(m.Active)
	seq := m.nextSeq
	m.nextSeq++
	ts := &m.taskPool[unit]
	*ts = taskState{
		desc:       desc,
		entry:      entry,
		assignedAt: now,
		seq:        seq,
	}
	m.tasks[unit] = ts
	m.rebuildRegs(unit, now)
	if m.sink != nil {
		m.units[unit].SetTraceTask(seq)
		m.sink.Emit(trace.Event{Cycle: now, Kind: trace.KTaskAssign, Unit: int8(unit),
			Task: seq, Arg: entry})
	}
	m.startUnit(unit, now)
	if m.startFCC {
		m.units[unit].SeedFCC(true)
		m.startFCC = false
	}
	m.Active++
	if m.forcedValid && m.forced == entry {
		m.forcedValid = false
	}
}

// rebuildRegs initializes a unit's register file copy at (re)assignment:
// committed state, overridden in sequence order by each active
// predecessor's create-mask registers — already-forwarded values arrive
// with their ring delay, the rest become reservations (the accum mask of
// Section 2.2).
func (m *Multiscalar) rebuildRegs(unit int, now uint64) {
	rf := m.rfs[unit]
	rf.Vals = m.archRegs
	clear(rf.ReadyAt[:])
	rf.Pending = 0
	rf.Sent = 0
	var accum isa.RegMask
	du := m.Dist(unit)
	for d := 0; d < du; d++ {
		q := m.UnitAt(d)
		qt := m.tasks[q]
		if qt == nil {
			continue
		}
		accum = accum.Union(qt.desc.Create)
		hop := uint64((du - d) * m.cfg.RingLatency)
		// Bit loop instead of RegMask.ForEach: the closure would
		// capture loop-dependent state and heap-allocate on every
		// rebuild, which is on the assignment/squash critical path.
		for bm := qt.desc.Create; bm != 0; bm &= bm - 1 {
			r := isa.Reg(bits.TrailingZeros64(uint64(bm)))
			if qt.sentMask.Has(r) {
				sv := qt.sentVals[r]
				rf.Vals[r] = sv.val
				rf.ReadyAt[r] = sv.when + hop
				rf.Pending = rf.Pending.Clear(r)
			} else {
				rf.Pending = rf.Pending.Set(r)
			}
		}
	}
	rf.Accum = accum
}

// forward sends one register value from unit p around the ring: at most
// once per register per task, paced to the unit's issue width per cycle,
// delivered hop by hop to successors until a unit whose create mask
// contains the register swallows it (that unit will produce or release
// its own version).
func (m *Multiscalar) forward(p int, now uint64, r isa.Reg, v interp.Value) {
	rf := m.rfs[p]
	if r == isa.RegZero || rf.Sent.Has(r) {
		return
	}
	rf.Sent = rf.Sent.Set(r)
	m.ringSends++
	m.progress = true // a new value enters the ring (also reached from tryFlush)

	// Send-slot pacing.
	sc := now
	if m.sendBusy[p] > sc {
		sc = m.sendBusy[p]
	}
	if m.sendAt[p] != sc {
		m.sendAt[p] = sc
		m.sendN[p] = 0
	}
	m.sendN[p]++
	if m.sendN[p] >= m.cfg.IssueWidth {
		m.sendBusy[p] = sc + 1
	}

	m.tasks[p].sentVals[r] = sentValue{val: v, when: sc}
	m.tasks[p].sentMask = m.tasks[p].sentMask.Set(r)
	if m.sink != nil {
		m.sink.Emit(trace.Event{Cycle: sc, Kind: trace.KRingSend, Unit: int8(p),
			Task: m.tasks[p].seq, Arg: uint32(r)})
	}

	for d := 1; ; d++ {
		q := (p + d) % m.cfg.NumUnits
		if !m.withinActive(q) || q == p {
			break
		}
		if m.tasks[q] == nil {
			break
		}
		at := sc + uint64(d*m.cfg.RingLatency)
		m.rfs[q].Deliver(r, v, at)
		// A unit asleep on this register wakes when it arrives (mid-sweep
		// deliveries reach successors, whose slot in the sweep comes later).
		if m.units[q].ExtWait().Has(r) {
			m.wakeBy(q, at)
		}
		if m.tasks[q].desc.Create.Has(r) {
			break // swallowed
		}
	}
}

// tryFlush forwards, at task completion, every create-mask register the
// task has not explicitly forwarded or released (Section 2.2: later tasks
// wait for any register an earlier task said it might produce, so
// remaining reservations must be cleared). Registers still awaiting a
// predecessor value retry next cycle. Returns true when all create-mask
// registers have been sent. A register the task already forwarded must
// hold the value it sent (a forward bit on a write that is not the last
// one is an error, not a result).
func (m *Multiscalar) tryFlush(unit int, now uint64) (bool, error) {
	rf := m.rfs[unit]
	ts := m.tasks[unit]
	all := true
	var err error
	for bm := ts.desc.Create; bm != 0; bm &= bm - 1 { // bit loop: see rebuildRegs
		r := isa.Reg(bits.TrailingZeros64(uint64(bm)))
		if rf.Sent.Has(r) {
			if err == nil && !rf.Pending.Has(r) && !sameBits(ts.sentVals[r].val, rf.Vals[r]) {
				err = fmt.Errorf("core: task %s forwarded stale %v: sent %v, final %v",
					ts.desc.Name, r, ts.sentVals[r].val, rf.Vals[r])
			}
			continue
		}
		if rf.Pending.Has(r) {
			all = false // predecessor value still in flight; retry
			continue
		}
		m.forward(unit, now, r, rf.Vals[r])
	}
	return all, err
}

// sameBits reports whether two register values are bit for bit the
// same: a forwarded NaN is the value it was, and -0 is not +0.
func sameBits(a, b interp.Value) bool {
	return a.I == b.I && math.Float64bits(a.F) == math.Float64bits(b.F)
}

// retire validates and retires the head task when it is complete
// (Section 2.3: tasks retire in assignment order; one per cycle).
func (m *Multiscalar) retire(now uint64) error {
	if m.Active == 0 {
		return nil
	}
	u := m.units[m.Head]
	ts := m.tasks[m.Head]
	if !u.Done() {
		return nil
	}
	flushed, err := m.tryFlush(m.Head, now)
	if err != nil {
		return err
	}
	if !flushed {
		return nil
	}
	m.progress = true // the head task retires this cycle

	actual := u.ExitPC()
	if len(ts.desc.Targets) > 0 && !ts.validated {
		outcomeIdx := ts.desc.OutcomeIndex(actual, u.ExitByReturn())
		if outcomeIdx < 0 {
			return fmt.Errorf("core: task %s exited to 0x%x, not among its targets %v",
				ts.desc.Name, actual, ts.desc.Targets)
		}
		if ts.predMade {
			m.validateOne(0, ts, actual, outcomeIdx, now)
		} else {
			// No successor was ever chosen (stalled prediction): apply the
			// actual outcome's stack effects and force the target.
			m.ras.Follow(ts.desc, outcomeIdx)
			m.forced = actual
			m.forcedValid = true
			ts.validated = true
		}
	}

	// Commit: drain speculative stores, publish the architectural
	// register state, free the unit.
	m.ARB.Commit(m.Head, m.Backing)
	m.archRegs = m.rfs[m.Head].Vals
	if !m.rfs[m.Head].Pending.Empty() {
		return fmt.Errorf("core: retiring task %s with pending registers %v",
			ts.desc.Name, m.rfs[m.Head].Pending)
	}
	m.committed += u.Retired
	m.tasksRetired++
	m.foldActivity(m.Head, true)
	if m.sink != nil {
		m.sink.Emit(trace.Event{Cycle: now, Kind: trace.KTaskRetire, Unit: int8(m.Head),
			Task: ts.seq, Arg: u.ExitPC(), Arg2: u.Retired})
		u.SetTraceTask(-1)
	}
	m.squashUnit(m.Head)
	m.tasks[m.Head] = nil
	m.Head = m.UnitAt(1)
	m.Active--
	m.wakeBy(m.Head, 0) // a unit parked on a syscall executes it once it is the head
	return nil
}

// validateCompleted checks, for every completed task whose successor has
// been chosen, that the prediction matches the actual exit — the moment
// the exit point is known (Section 3.1.2), not at retirement. Detecting a
// misprediction here squashes the non-useful successors early.
func (m *Multiscalar) validateCompleted(now uint64) {
	for d := 0; d < m.Active; d++ {
		q := m.UnitAt(d)
		u := m.units[q]
		ts := m.tasks[q]
		if ts == nil || !u.Done() || ts.validated || !ts.predMade {
			continue
		}
		outcomeIdx := ts.desc.OutcomeIndex(u.ExitPC(), u.ExitByReturn())
		if outcomeIdx < 0 {
			continue // surfaced at retire
		}
		m.validateOne(d, ts, u.ExitPC(), outcomeIdx, now)
	}
}

// validateOne resolves one task's successor prediction: train on a hit,
// control-squash everything after the task on a miss. dist is the task's
// distance from the head.
func (m *Multiscalar) validateOne(dist int, ts *taskState, actual uint32, outcomeIdx int, now uint64) {
	m.progress = true
	ts.validated = true
	if ts.predCounts {
		m.predictions++
	}
	if m.sink != nil && ts.predMade {
		hit := uint64(0)
		if ts.predEntry == actual {
			hit = 1
		}
		m.sink.Emit(trace.Event{Cycle: now, Kind: trace.KPredValidate,
			Unit: int8(m.UnitAt(dist)), Task: ts.seq, Arg: actual, Arg2: hit})
	}
	if ts.predEntry == actual {
		if ts.predCounts {
			m.predCorrect++
			m.predictor.UpdateWith(ts.histBefore, ts.desc.Entry, outcomeIdx, ts.predIdx)
		}
		return
	}
	// Control squash: every task after this one is on the wrong path.
	m.squash(now, dist+1, trace.CauseControl, 0, false)
	m.pending.valid = false
	m.terminal = false

	m.predictor.Restore(ts.histSnap)
	m.ras.Restore(ts.rasSnap)
	m.ras.Follow(ts.desc, outcomeIdx) // the actual outcome's stack effect
	if ts.predCounts {
		m.predictor.UpdateWith(ts.histBefore, ts.desc.Entry, outcomeIdx, ts.predIdx)
	}
	m.forced = actual
	m.forcedValid = true
	// Record what was actually forced so a re-validation after a memory
	// violation restart compares against the real successor.
	ts.predEntry = actual
	m.ctlSquashes++
}

// squash discards the activations at distances first and beyond from
// the head for one cause: their cycles become squashed work, each is
// counted and traced (memory and ARB causes with the conflicting address
// and its bank) and loses its speculative memory and pipeline state.
// With restart the same tasks re-execute from the next cycle — their
// predictions stay valid, their ring sends are all withdrawn before any
// register file is rebuilt; without, they were on the wrong path, their
// units are freed and the caller redirects the sequencer. Tasks draining
// at exit are only accounted for: the units stay as the exit found them.
func (m *Multiscalar) squash(now uint64, first int, cause, addr uint32, restart bool) {
	bank := -1
	if cause == trace.CauseMemory || cause == trace.CauseARB {
		bank = m.ARB.BankIndex(addr)
	}
	for d := first; d < m.Active; d++ {
		q := m.UnitAt(d)
		m.foldActivity(q, false)
		m.tasksSquashed++
		if m.sink != nil {
			m.sink.Emit(trace.Event{Cycle: now, Kind: trace.KTaskSquash, Unit: int8(q),
				Task: m.tasks[q].seq, Arg: cause, Arg2: trace.SquashArg2(uint64(d), addr, bank)})
		}
		if cause == trace.CauseDrain {
			continue
		}
		m.ARB.ClearUnit(q)
		m.squashUnit(q)
		if restart {
			m.tasks[q].sentMask = 0
			continue
		}
		if m.sink != nil {
			m.units[q].SetTraceTask(-1)
		}
		m.tasks[q] = nil
	}
	if !restart {
		if cause != trace.CauseDrain {
			m.Active = first
		}
		return
	}
	for d := first; d < m.Active; d++ {
		q := m.UnitAt(d)
		m.rebuildRegs(q, now+1)
		if m.sink != nil {
			m.sink.Emit(trace.Event{Cycle: now + 1, Kind: trace.KTaskRestart, Unit: int8(q),
				Task: m.tasks[q].seq, Arg: m.tasks[q].entry})
		}
		m.startUnit(q, now+1)
	}
}

// memoryViolationSquash re-executes the violating task and squashes all
// its successors (Section 2.1: squashing a task squashes all tasks in
// execution following it).
func (m *Multiscalar) memoryViolationSquash(now uint64) {
	m.progress = true
	w := m.Viol
	addr := m.ViolAddr
	m.Viol = -1
	if !m.withinActive(w) || m.Dist(w) == 0 {
		return // stale (already squashed) or impossible
	}
	first := m.Dist(w)
	m.squash(now, first, trace.CauseMemory, addr, true)
	for d := first; d < m.Active; d++ {
		// Re-execution may take a different path: the task's exit must be
		// validated afresh.
		m.tasks[m.UnitAt(d)].validated = false
	}
	m.memSquashes++
}

// arbOverflowSquash frees ARB space under PolicySquash by squashing the
// youngest task.
func (m *Multiscalar) arbOverflowSquash(now uint64, addr uint32) {
	if m.Active <= 1 {
		return // never squash the head
	}
	m.progress = true
	m.arbSquashes++
	m.squash(now, m.Active-1, trace.CauseARB, addr, true)
}

// syscall executes the head unit's system call over its speculative view
// of memory: buffers earlier tasks wrote may still be in the ARB.
func (m *Multiscalar) syscall(unit int) (uint32, bool, error) {
	rf := m.rfs[unit]
	for _, r := range pu.SyscallRegs {
		if rf.Pending.Has(r) {
			return 0, false, fmt.Errorf("core: syscall with pending register %v", r)
		}
	}
	view := &arb.View{ARB: m.ARB, Unit: unit, Head: m.Head, Active: m.Active, Backing: m.Backing}
	return m.env.Call(view, rf.Vals[isa.RegV0].I, rf.Vals[isa.RegA0].I,
		rf.Vals[isa.RegA1].I, rf.Vals[isa.RegA2].I, rf.Vals[isa.RegA3].I)
}
