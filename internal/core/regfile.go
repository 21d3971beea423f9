package core

import (
	"multiscalar/internal/interp"
	"multiscalar/internal/isa"
)

// regFile is one unit's copy of the logical register file (Section 2.2):
// local values, reservations from the accum mask, and the once-per-task
// sent set for ring forwarding. Timing of in-flight ring values is
// carried per register as a ready cycle, which models hop-by-hop delivery
// on the unidirectional ring without an event queue.
type regFile struct {
	vals    [isa.NumRegs]interp.Value
	readyAt [isa.NumRegs]uint64
	pending isa.RegMask // reservation: value not yet produced by a predecessor
	sent    isa.RegMask // registers this task has already forwarded
	accum   isa.RegMask // reservations installed at assignment (for stats/debug)
}

// read returns the register value if it is available at cycle now.
func (rf *regFile) read(now uint64, r isa.Reg) (interp.Value, bool) {
	if r == isa.RegZero {
		return interp.Value{}, true
	}
	if rf.pending.Has(r) {
		return interp.Value{}, false
	}
	if rf.readyAt[r] > now {
		return interp.Value{}, false
	}
	return rf.vals[r], true
}

// write performs a local register write: it satisfies local readers
// immediately and cancels any outstanding reservation (the task produced
// its own value before the predecessor's arrived; sequential semantics
// within the task make the local value the right one for local reads).
func (rf *regFile) write(r isa.Reg, v interp.Value) {
	if r == isa.RegZero {
		return
	}
	rf.vals[r] = v
	rf.readyAt[r] = 0
	rf.pending = rf.pending.Clear(r)
}

// deliver installs a value arriving on the ring. Only outstanding
// reservations accept deliveries: if the task already produced the
// register locally, the older inbound value is ignored.
func (rf *regFile) deliver(r isa.Reg, v interp.Value, readyAt uint64) {
	if !rf.pending.Has(r) {
		return
	}
	rf.vals[r] = v
	rf.readyAt[r] = readyAt
	rf.pending = rf.pending.Clear(r)
}

// sentValue records one forwarded register for rebuild after squashes.
type sentValue struct {
	val  interp.Value
	when uint64 // cycle the value left the unit
}
