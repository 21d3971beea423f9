package core

import (
	"multiscalar/internal/interp"
	"multiscalar/internal/isa"
	"multiscalar/internal/snapshot"
)

// Checkpoint/restore for the timing machines (docs/simulator.md,
// "Snapshot format"). Save serializes every piece of mutable machine
// state; Restore loads it into a machine freshly constructed from the
// same Program and Config, re-deriving the pointers a snapshot cannot
// carry (task descriptors by entry address, window instructions by PC,
// ARB touch-list entries by chunk). A restored run continues exactly
// where the saved one stopped: results, statistics and trace events
// come out bit-identical to the uninterrupted run.

// ScheduleCheckpoint arranges for fn to run once, at the top of the
// first executed loop iteration whose cycle is at or after the given
// cycle — the one point in the loop where machine state is exactly
// what Save captures. Under the wakeup scheduler that iteration may
// land after the requested cycle (skipped stall cycles are never
// broken up, so a restored run replays the exact iteration sequence of
// an uninterrupted one and all Result fields, CyclesTicked included,
// come out identical). A non-nil error from fn aborts the run.
func (s *Scalar) ScheduleCheckpoint(cycle uint64, fn func() error) {
	s.chkAt, s.chkFn = cycle, fn
}

// ScheduleCheckpoint is the multiscalar form; see Scalar.ScheduleCheckpoint.
func (m *Multiscalar) ScheduleCheckpoint(cycle uint64, fn func() error) {
	m.chkAt, m.chkFn = cycle, fn
}

func saveValue(e *snapshot.Encoder, v interp.Value) {
	e.U32(v.I)
	e.F64(v.F)
}

func loadValue(d *snapshot.Decoder) interp.Value {
	return interp.Value{I: d.U32(), F: d.F64()}
}

func saveRegs(e *snapshot.Encoder, regs *[isa.NumRegs]interp.Value) {
	for _, v := range regs {
		saveValue(e, v)
	}
}

func loadRegs(d *snapshot.Decoder, regs *[isa.NumRegs]interp.Value) {
	for i := range regs {
		regs[i] = loadValue(d)
	}
}

// Save serializes the scalar machine.
func (s *Scalar) Save() ([]byte, error) {
	e := snapshot.NewEncoder(snapshot.KindScalar, s.now)
	e.Tag("SCLR")
	e.Bool(s.started)
	e.U64(s.now)
	e.U64(s.ticked)
	s.env.SaveState(e)
	s.backing.SaveState(e)
	s.bus.SaveState(e)
	s.icache.SaveState(e)
	s.dcache.SaveState(e)
	s.unit.SaveState(e)
	saveRegs(e, &s.ext.regs)
	return e.Bytes(), nil
}

// Restore loads a scalar snapshot into a machine built from the same
// Program and Config; Run then resumes the saved run. On error the
// machine must not be run.
func (s *Scalar) Restore(data []byte) error {
	d, err := snapshot.NewDecoder(data, snapshot.KindScalar)
	if err != nil {
		return err
	}
	d.Tag("SCLR")
	s.started = d.Bool()
	s.now = d.U64()
	s.ticked = d.U64()
	s.env.LoadState(d)
	s.backing.LoadState(d)
	s.bus.LoadState(d)
	s.icache.LoadState(d)
	s.dcache.LoadState(d)
	s.unit.LoadState(d)
	loadRegs(d, &s.ext.regs)
	return d.Finish()
}

func saveRegFile(e *snapshot.Encoder, rf *regFile) {
	saveRegs(e, &rf.vals)
	for _, t := range rf.readyAt {
		e.U64(t)
	}
	e.U64(uint64(rf.pending))
	e.U64(uint64(rf.sent))
	e.U64(uint64(rf.accum))
}

func loadRegFile(d *snapshot.Decoder, rf *regFile) {
	loadRegs(d, &rf.vals)
	for i := range rf.readyAt {
		rf.readyAt[i] = d.U64()
	}
	rf.pending = isa.RegMask(d.U64())
	rf.sent = isa.RegMask(d.U64())
	rf.accum = isa.RegMask(d.U64())
}

func (m *Multiscalar) saveTask(e *snapshot.Encoder, ts *taskState) {
	e.Bool(ts != nil)
	if ts == nil {
		return
	}
	e.U32(ts.entry)
	e.U64(ts.assignedAt)
	e.I32(ts.seq)
	e.U64(uint64(ts.sentMask))
	for _, sv := range ts.sentVals {
		saveValue(e, sv.val)
		e.U64(sv.when)
	}
	e.Bool(ts.predMade)
	e.Bool(ts.predCounts)
	e.Int(ts.predIdx)
	e.U32(ts.predEntry)
	e.U16(ts.histBefore)
	for _, h := range ts.histSnap {
		e.U16(h)
	}
	ts.rasSnap.SaveState(e)
	e.Bool(ts.validated)
}

func (m *Multiscalar) loadTask(d *snapshot.Decoder) *taskState {
	if !d.Bool() {
		return nil
	}
	ts := &taskState{}
	ts.entry = d.U32()
	if d.Err() != nil {
		return nil
	}
	if ts.desc = m.prog.TaskAt(ts.entry); ts.desc == nil {
		d.Failf("core: task entry 0x%x has no descriptor", ts.entry)
		return nil
	}
	ts.assignedAt = d.U64()
	ts.seq = d.I32()
	ts.sentMask = isa.RegMask(d.U64())
	for i := range ts.sentVals {
		ts.sentVals[i].val = loadValue(d)
		ts.sentVals[i].when = d.U64()
	}
	ts.predMade = d.Bool()
	ts.predCounts = d.Bool()
	ts.predIdx = d.Int()
	ts.predEntry = d.U32()
	ts.histBefore = d.U16()
	for i := range ts.histSnap {
		ts.histSnap[i] = d.U16()
	}
	ts.rasSnap.LoadState(d)
	ts.validated = d.Bool()
	return ts
}

// Save serializes the multiscalar machine.
func (m *Multiscalar) Save() ([]byte, error) {
	e := snapshot.NewEncoder(snapshot.KindMultiscalar, m.now)
	e.Tag("MSC ")
	e.Int(m.cfg.NumUnits)
	e.U64(m.now)
	e.U64(m.ticked)
	e.Bool(m.finished)
	e.Bool(m.progress)
	e.Int(m.head)
	e.Int(m.active)
	e.I32(m.nextSeq)
	e.U32(m.forced)
	e.Bool(m.forcedValid)
	e.Bool(m.terminal)
	e.Bool(m.pending.valid)
	e.U64(m.pending.ready)
	e.U32(m.pending.entry)
	for i := 0; i < m.cfg.NumUnits; i++ {
		e.U64(m.sendAt[i])
		e.Int(m.sendN[i])
		e.U64(m.sendBusy[i])
	}
	e.Int(m.viol)
	e.U32(m.violAddr)
	saveRegs(e, &m.archRegs)
	e.U64(m.sharedFUAt)
	e.Int(m.sharedFUUsed[0])
	e.Int(m.sharedFUUsed[1])

	m.predictor.SaveState(e)
	m.ras.SaveState(e)
	m.descCache.SaveState(e)
	m.env.SaveState(e)
	m.backing.SaveState(e)
	m.bus.SaveState(e)
	for _, ic := range m.icaches {
		ic.SaveState(e)
	}
	m.dbanks.SaveState(e)
	m.arb.SaveState(e)
	for _, u := range m.units {
		u.SaveState(e)
	}
	for _, rf := range m.rfs {
		saveRegFile(e, rf)
	}
	for _, ts := range m.tasks {
		m.saveTask(e, ts)
	}

	e.U64(m.committed)
	e.U64(m.tasksRetired)
	e.U64(m.tasksSquashed)
	e.U64(m.ctlSquashes)
	e.U64(m.ringSends)
	e.U64(m.memSquashes)
	e.U64(m.arbSquashes)
	e.U64(m.predictions)
	e.U64(m.predCorrect)
	for _, a := range m.activity {
		e.U64(a)
	}
	e.U64(m.squashedCycles)
	return e.Bytes(), nil
}

// Restore loads a multiscalar snapshot into a machine built from the
// same Program and Config; Run then resumes the saved run. On error
// the machine must not be run.
func (m *Multiscalar) Restore(data []byte) error {
	d, err := snapshot.NewDecoder(data, snapshot.KindMultiscalar)
	if err != nil {
		return err
	}
	d.Tag("MSC ")
	if n := d.Int(); d.Err() == nil && n != m.cfg.NumUnits {
		d.Failf("core: snapshot has %d units, machine has %d", n, m.cfg.NumUnits)
	}
	if err := d.Err(); err != nil {
		return err
	}
	m.now = d.U64()
	m.ticked = d.U64()
	// Not in the snapshot: every unit resumes awake (waking early is always
	// safe) and UnitTicks restarts from the executed cycles' dense count.
	m.unitTicks = m.ticked * uint64(m.cfg.NumUnits)
	clear(m.wake)
	m.finished = d.Bool()
	m.progress = d.Bool()
	m.head = d.Int()
	m.active = d.Int()
	m.nextSeq = d.I32()
	if m.head < 0 || m.head >= m.cfg.NumUnits || m.active < 0 || m.active > m.cfg.NumUnits {
		d.Failf("core: head %d / active %d out of range", m.head, m.active)
		return d.Err()
	}
	m.forced = d.U32()
	m.forcedValid = d.Bool()
	m.terminal = d.Bool()
	m.pending.valid = d.Bool()
	m.pending.ready = d.U64()
	m.pending.entry = d.U32()
	m.pending.desc = nil
	if d.Err() == nil && m.pending.valid {
		if m.pending.desc = m.prog.TaskAt(m.pending.entry); m.pending.desc == nil {
			d.Failf("core: pending entry 0x%x has no descriptor", m.pending.entry)
			return d.Err()
		}
	}
	for i := 0; i < m.cfg.NumUnits; i++ {
		m.sendAt[i] = d.U64()
		m.sendN[i] = d.Int()
		m.sendBusy[i] = d.U64()
	}
	m.viol = d.Int()
	m.violAddr = d.U32()
	loadRegs(d, &m.archRegs)
	m.sharedFUAt = d.U64()
	m.sharedFUUsed[0] = d.Int()
	m.sharedFUUsed[1] = d.Int()

	m.predictor.LoadState(d)
	m.ras.LoadState(d)
	m.descCache.LoadState(d)
	m.env.LoadState(d)
	m.backing.LoadState(d)
	m.bus.LoadState(d)
	for _, ic := range m.icaches {
		ic.LoadState(d)
	}
	m.dbanks.LoadState(d)
	m.arb.LoadState(d)
	for _, u := range m.units {
		u.LoadState(d)
	}
	for _, rf := range m.rfs {
		loadRegFile(d, rf)
	}
	for i := range m.tasks {
		m.tasks[i] = m.loadTask(d)
		if d.Err() != nil {
			return d.Err()
		}
	}

	m.committed = d.U64()
	m.tasksRetired = d.U64()
	m.tasksSquashed = d.U64()
	m.ctlSquashes = d.U64()
	m.ringSends = d.U64()
	m.memSquashes = d.U64()
	m.arbSquashes = d.U64()
	m.predictions = d.U64()
	m.predCorrect = d.U64()
	for i := range m.activity {
		m.activity[i] = d.U64()
	}
	m.squashedCycles = d.U64()
	return d.Finish()
}
