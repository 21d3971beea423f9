package core

import (
	"multiscalar/internal/interp"
	"multiscalar/internal/snapshot"
)

// Checkpoint/restore for the timing machine (docs/simulator.md,
// "Snapshot format"). The State method lists every piece of the machine's
// mutable state once; Save walks the list with a saving codec and
// Restore walks the same list with a loading one, into a machine freshly
// constructed from the same Program and Config, re-deriving the pointers
// a snapshot cannot carry (task descriptors by entry address, window
// instructions by PC, ARB touch-list entries by chunk). A restored run
// continues exactly where the saved one stopped: results, statistics and
// trace events come out bit-identical to the uninterrupted run.

// ScheduleCheckpoint arranges for fn to run once, at the top of the
// first executed loop iteration whose cycle is at or after the given
// cycle — the one point in the loop where machine state is exactly
// what Save captures. Under the wakeup scheduler that iteration may
// land after the requested cycle (skipped stall cycles are never
// broken up, so a restored run replays the exact iteration sequence of
// an uninterrupted one and all Result fields, CyclesTicked included,
// come out identical). A non-nil error from fn aborts the run.
func (m *Multiscalar) ScheduleCheckpoint(cycle uint64, fn func() error) {
	m.chkAt, m.chkFn = cycle, fn
}

// State walks one in-flight task record; loading re-derives its
// descriptor from the machine's lookup by entry address.
func (ts *taskState) State(c *snapshot.Codec, m *Multiscalar) {
	c.U32(&ts.entry)
	if c.Loading() {
		if c.Err() != nil {
			return
		}
		if ts.desc = m.taskAt(ts.entry); ts.desc == nil {
			c.Failf("core: task entry 0x%x has no descriptor", ts.entry)
			return
		}
	}
	c.U64(&ts.assignedAt)
	c.I32(&ts.seq)
	c.U64((*uint64)(&ts.sentMask))
	for i := range ts.sentVals {
		ts.sentVals[i].val.State(c)
		c.U64(&ts.sentVals[i].when)
	}
	c.Bool(&ts.predMade)
	c.Bool(&ts.predCounts)
	c.Int(&ts.predIdx)
	c.U32(&ts.predEntry)
	c.U16(&ts.histBefore)
	c.U16s(ts.histSnap[:])
	ts.rasSnap.State(c)
	c.Bool(&ts.validated)
}

// State walks the machine.
func (m *Multiscalar) State(c *snapshot.Codec) {
	c.Tag("MSC ")
	units := m.cfg.NumUnits
	if c.Int(&units); units != m.cfg.NumUnits {
		c.Failf("core: snapshot has %d units, machine has %d", units, m.cfg.NumUnits)
	}
	if c.Err() != nil {
		return
	}
	c.U64(&m.now)
	c.U64(&m.ticked)
	for q := range m.units {
		m.settle(q) // a sleeper's activity counts are due before they are walked
	}
	if c.Loading() {
		// Not in the snapshot: every unit resumes awake (waking early is always
		// safe), UnitTicks restarts from the executed cycles' dense count,
		// and the last retire a bound error reports is the restore.
		m.unitTicks = m.ticked * uint64(m.cfg.NumUnits)
		clear(m.wake)
		m.asleep = 0
		m.lastRetire = m.now
	}
	c.Bool(&m.finished)
	c.Bool(&m.progress)
	c.Int(&m.Head)
	c.Int(&m.Active)
	c.I32(&m.nextSeq)
	if m.Head < 0 || m.Head >= m.cfg.NumUnits || m.Active < 0 || m.Active > m.cfg.NumUnits {
		c.Failf("core: head %d / active %d out of range", m.Head, m.Active)
		return
	}
	c.U32(&m.forced)
	c.Bool(&m.forcedValid)
	c.Bool(&m.terminal)
	c.Bool(&m.pending.valid)
	c.U64(&m.pending.ready)
	c.U32(&m.pending.entry)
	if c.Loading() {
		m.pending.desc = nil
		if c.Err() == nil && m.pending.valid {
			if m.pending.desc = m.taskAt(m.pending.entry); m.pending.desc == nil {
				c.Failf("core: pending entry 0x%x has no descriptor", m.pending.entry)
				return
			}
		}
	}
	for i := 0; i < m.cfg.NumUnits; i++ {
		c.U64(&m.sendAt[i])
		c.Int(&m.sendN[i])
		c.U64(&m.sendBusy[i])
	}
	c.Int(&m.Viol)
	c.U32(&m.ViolAddr)
	interp.RegsState(c, &m.archRegs)
	c.U64(&m.FUAt)
	c.Int(&m.FUUsed[0])
	c.Int(&m.FUUsed[1])

	m.predictor.State(c)
	m.ras.State(c)
	m.descCache.State(c)
	m.env.State(c)
	m.Backing.State(c)
	m.bus.State(c)
	for _, ic := range m.icaches {
		ic.State(c)
	}
	m.DCache.State(c)
	m.ARB.State(c)
	for _, u := range m.units {
		u.State(c)
	}
	for _, rf := range m.rfs {
		rf.State(c)
	}
	for i := range m.tasks {
		present := m.tasks[i] != nil
		c.Bool(&present)
		if !present {
			m.tasks[i] = nil
			continue
		}
		if c.Loading() {
			m.tasks[i] = &taskState{}
		}
		if m.tasks[i].State(c, m); c.Err() != nil {
			return
		}
	}

	c.U64(&m.committed)
	c.U64(&m.tasksRetired)
	c.U64(&m.tasksSquashed)
	c.U64(&m.ctlSquashes)
	c.U64(&m.ringSends)
	c.U64(&m.memSquashes)
	c.U64(&m.arbSquashes)
	c.U64(&m.predictions)
	c.U64(&m.predCorrect)
	c.U64s(m.activity[:])
	c.U64(&m.squashedCycles)
}

// Save serializes the machine.
func (m *Multiscalar) Save() ([]byte, error) {
	return snapshot.Save(snapshot.KindMultiscalar, m.now, m.State)
}

// Restore loads a snapshot into a machine built from the same Program
// and Config; Run then resumes the saved run. On error
// the machine must not be run.
func (m *Multiscalar) Restore(data []byte) error {
	return snapshot.Load(data, snapshot.KindMultiscalar, m.State)
}
