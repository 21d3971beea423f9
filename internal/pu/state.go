package pu

import (
	"multiscalar/internal/interp"
	"multiscalar/internal/snapshot"
)

// Snapshot support. Instruction pointers in the fetch queue and the
// window are serialized as addresses and re-resolved against the
// program at load, so a snapshot carries no program text. The trace
// bookkeeping (taskSeq, firstIssued, activity dedup) is included:
// restoring a run that has a sink attached must emit the exact event
// stream the uninterrupted run would.

func saveValue(e *snapshot.Encoder, v interp.Value) {
	e.U32(v.I)
	e.F64(v.F)
}

func loadValue(d *snapshot.Decoder) interp.Value {
	return interp.Value{I: d.U32(), F: d.F64()}
}

// SaveState serializes the unit's full pipeline state.
func (u *Unit) SaveState(e *snapshot.Encoder) {
	e.Tag("UNIT")
	e.Bool(u.active)
	e.U32(u.pc)
	e.Bool(u.fetchStopped)
	e.Len(len(u.fetchQ))
	for _, f := range u.fetchQ {
		e.U32(f.addr)
		e.U32(f.predictedNext)
	}
	e.U64(u.fetchReady)
	e.U32(u.fetchGroup)

	e.Len(len(u.rob))
	for i := range u.rob {
		r := &u.rob[i]
		e.U32(r.addr)
		e.U8(uint8(r.state))
		e.U64(r.doneAt)
		saveValue(e, r.val)
		e.Bool(r.fcc)
		e.Bool(r.setFCC)
		e.U32(r.predictedNext)
		e.U32(r.actualNext)
		e.Bool(r.taken)
		e.Bool(r.stopHit)
		e.Bool(r.memDone)
		e.Bool(r.fwded)
	}
	e.U64(u.nextDone)
	e.Bool(u.committedFCC)

	e.Bool(u.done)
	e.U32(u.exitPC)
	e.Bool(u.exitByRet)

	e.U64(u.Retired)
	for _, c := range u.ActCounts {
		e.U64(c)
	}
	e.Bool(!u.extWait.Empty())
	e.Int(u.issuedNow)
	e.Int(u.retiredNow)
	e.U64(u.startCycle)
	e.U8(uint8(u.lastAct))
	e.Bool(u.progressed)

	e.I32(u.taskSeq)
	e.Bool(u.firstIssued)
	e.U8(uint8(u.emitAct))
	e.Bool(u.emitActSet)

	u.bp.SaveState(e)
}

// LoadState restores the unit into one constructed with the same
// configuration and program.
func (u *Unit) LoadState(d *snapshot.Decoder) {
	d.Tag("UNIT")
	u.active = d.Bool()
	u.pc = d.U32()
	u.fetchStopped = d.Bool()
	nq := d.Len(u.cfg.FetchQSize)
	u.fetchQ = u.fetchQBuf[:0]
	for i := 0; i < nq; i++ {
		f := fetchedInstr{addr: d.U32(), predictedNext: d.U32()}
		if d.Err() != nil {
			return
		}
		if f.instr = u.prog.InstrAt(f.addr); f.instr == nil {
			d.Failf("pu%d: fetched address 0x%x outside text", u.ID, f.addr)
			return
		}
		u.fetchQ = append(u.fetchQ, f)
	}
	u.fetchReady = d.U64()
	u.fetchGroup = d.U32()

	nr := d.Len(u.cfg.ROBSize)
	u.clearWindow()
	for i := 0; i < nr; i++ {
		var r robEntry
		r.addr = d.U32()
		r.state = robState(d.U8())
		r.doneAt = d.U64()
		r.val = loadValue(d)
		r.fcc = d.Bool()
		r.setFCC = d.Bool()
		r.predictedNext = d.U32()
		r.actualNext = d.U32()
		r.taken = d.Bool()
		r.stopHit = d.Bool()
		r.memDone = d.Bool()
		r.fwded = d.Bool()
		if d.Err() != nil {
			return
		}
		if r.instr = u.prog.InstrAt(r.addr); r.instr == nil {
			d.Failf("pu%d: window address 0x%x outside text", u.ID, r.addr)
			return
		}
		u.rob = append(u.rob, r)
		u.bind(len(u.rob) - 1) // not serialized: re-derived in window order, as dispatch did
	}
	// Not serialized: conservatively assume the restored window may hold
	// a completed entry awaiting an early forward (a stale-true flag only
	// costs one scan, so restored runs stay bit-identical).
	u.fwdPending = len(u.rob) > 0
	u.nextDone = d.U64()
	u.committedFCC = d.Bool()

	u.done = d.Bool()
	u.exitPC = d.U32()
	u.exitByRet = d.Bool()

	u.Retired = d.U64()
	for i := range u.ActCounts {
		u.ActCounts[i] = d.U64()
	}
	_ = d.Bool() // "an issue waited on the Ext" — per-Tick scratch, re-derived by the next Tick
	u.issuedNow = d.Int()
	u.retiredNow = d.Int()
	u.startCycle = d.U64()
	u.lastAct = Activity(d.U8())
	u.progressed = d.Bool()
	if u.lastAct >= NumActivities {
		d.Failf("pu%d: activity %d out of range", u.ID, u.lastAct)
		u.lastAct = ActIdle
	}

	u.taskSeq = d.I32()
	u.firstIssued = d.Bool()
	u.emitAct = Activity(d.U8())
	u.emitActSet = d.Bool()
	if u.emitAct >= NumActivities {
		d.Failf("pu%d: emit activity %d out of range", u.ID, u.emitAct)
		u.emitAct = ActIdle
	}

	u.bp.LoadState(d)
}
