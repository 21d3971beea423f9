package pu

import "multiscalar/internal/snapshot"

// Snapshot support. Instruction pointers in the fetch queue and the
// window are walked as addresses and re-resolved against the program
// when loading, so a snapshot carries no program text. The trace
// bookkeeping (taskSeq, firstIssued, activity dedup) is included:
// restoring a run that has a sink attached must emit the exact event
// stream the uninterrupted run would.

// State walks the unit's full pipeline state; loading needs a unit
// constructed with the same configuration and program.
func (u *Unit) State(c *snapshot.Codec) {
	c.Tag("UNIT")
	c.Bool(&u.active)
	c.U32(&u.pc)
	c.Bool(&u.fetchStopped)
	nq := c.Len(len(u.fetchQ), u.cfg.FetchQSize, 8)
	if c.Loading() {
		u.fetchQ = u.fetchQBuf[:nq]
	}
	for i := range u.fetchQ {
		f := &u.fetchQ[i]
		c.U32(&f.addr)
		c.U32(&f.predictedNext)
		if c.Err() != nil {
			return
		}
		if c.Loading() {
			if f.instr = u.prog.InstrAt(f.addr); f.instr == nil {
				c.Failf("pu%d: fetched address 0x%x outside text", u.ID, f.addr)
				return
			}
		}
	}
	c.U64(&u.fetchReady)
	c.U32(&u.fetchGroup)

	const robEntryBytes = 39 // the fields walked below
	nr := c.Len(len(u.rob), u.cfg.ROBSize, robEntryBytes)
	if c.Loading() {
		u.clearWindow()
	}
	for i := 0; i < nr; i++ {
		if c.Loading() {
			u.rob = append(u.rob, robEntry{})
		}
		r := &u.rob[i]
		c.U32(&r.addr)
		c.U8((*uint8)(&r.state))
		c.U64(&r.doneAt)
		r.val.State(c)
		c.Bool(&r.fcc)
		c.Bool(&r.setFCC)
		c.U32(&r.predictedNext)
		c.U32(&r.actualNext)
		c.Bool(&r.taken)
		c.Bool(&r.stopHit)
		c.Bool(&r.memDone)
		c.Bool(&r.fwded)
		if c.Err() != nil {
			return
		}
		if c.Loading() {
			if r.instr = u.prog.InstrAt(r.addr); r.instr == nil {
				c.Failf("pu%d: window address 0x%x outside text", u.ID, r.addr)
				return
			}
			u.bind(i) // bindings and masks are not serialized: re-derived in window order, as dispatch did
		}
	}
	c.U64(&u.nextDone)
	c.Bool(&u.committedFCC)

	if c.Bool(&u.done); u.done {
		u.ext.Completed |= u.bit
	} else {
		u.ext.Completed &^= u.bit
	}
	c.U32(&u.exitPC)
	c.Bool(&u.exitByRet)

	c.U64(&u.Retired)
	c.U64s(u.ActCounts[:])
	// The format's one save-only value: "an issue waited on the Ext" is
	// per-Tick scratch the next Tick re-derives, so the loaded byte goes
	// nowhere. Dropping it is a format change (a snapshot.Version bump).
	extWaited := !u.extWait.Empty()
	c.Bool(&extWaited)
	c.Int(&u.issuedNow)
	c.Int(&u.retiredNow)
	c.U64(&u.startCycle)
	c.U8((*uint8)(&u.lastAct))
	c.Bool(&u.progressed)
	if u.lastAct >= NumActivities {
		c.Failf("pu%d: activity %d out of range", u.ID, u.lastAct)
		u.lastAct = ActIdle
	}

	c.I32(&u.taskSeq)
	c.Bool(&u.firstIssued)
	c.U8((*uint8)(&u.emitAct))
	c.Bool(&u.emitActSet)
	if u.emitAct >= NumActivities {
		c.Failf("pu%d: emit activity %d out of range", u.ID, u.emitAct)
		u.emitAct = ActIdle
	}

	u.bp.State(c)
}
