package pu

import (
	"math/bits"

	"multiscalar/internal/isa"
)

// The window's per-tick facts are bitsets, so a stage visits only the
// entries that can act and Tick enters a stage only when its mask says
// there is work (docs/perf.md). Bit p of a mask is robBuf[p]: a slot,
// unlike a window index, does not move when the head retires, and slots
// ascend in program order. Slots below the head are always clear. The
// masks are derived state — mark computes an entry's bits from its
// fields (dispatch, restore, compaction) and the life-cycle transitions
// dispatched -> issued -> done -> retired move them.
const (
	mTry    = iota // dispatched, not parked: issue attempts it
	mParked        // dispatched, parked on the in-window producer waitOn back, which has not produced
	mIssued        // executing: complete watches its doneAt
	mCtl           // control op not done: younger memory ops wait
	mMem           // memory op not yet at the ARB: younger memory ops wait
	mSys           // syscall: nothing younger issues until it retires
	mFwd           // done and wants its forward (release, forward bit) sent
	mBar           // may redirect fetch or end the task, not resolved along the predicted path: younger forwards wait
	numMasks
)

// winWord is the masks' bits for 64 consecutive slots, one cache line.
// The default 16-entry window's buffer is exactly one.
type winWord [numMasks]uint64

// head is the slot of rob[0]: rob is the tail of robBuf from there.
func (u *Unit) head() int { return cap(u.robBuf) - cap(u.rob) }

// move takes slot p out of mask from and puts it in mask to.
func (u *Unit) move(p, from, to int) {
	w, b := &u.win[p>>6], uint64(1)<<(p&63)
	w[from] &^= b
	w[to] |= b
}

// unpark returns the entries parked on the producer in slot p to the try
// set.
func (u *Unit) unpark(p int) {
	for k, above := p>>6, ^uint64(1)<<(p&63); k < len(u.win); k, above = k+1, ^uint64(0) {
		for m := u.win[k][mParked] & above; m != 0; m &= m - 1 {
			q := k<<6 + bits.TrailingZeros64(m)
			if c := &u.robBuf[q]; int(c.waitOn) == q-p {
				c.waitOn = 0
				u.move(q, mParked, mTry)
			}
		}
	}
}

// mark sets the bits of the entry in slot p from its fields.
func (u *Unit) mark(p int) {
	e, w, b := &u.robBuf[p], &u.win[p>>6], uint64(1)<<(p&63)
	switch e.state {
	case stDispatched:
		if e.waitOn != 0 {
			w[mParked] |= b
		} else {
			w[mTry] |= b
		}
		if e.flags&bMem != 0 {
			w[mMem] |= b
		}
	case stIssued:
		w[mIssued] |= b
	case stDone:
		if e.wantsFwd() && !e.fwded {
			w[mFwd] |= b
		}
	}
	// The rest is for an entry that can redirect fetch or end the task: a
	// control op, a stop bit, a syscall (on the path as soon as it is done).
	if e.flags&(bCtl|bSyscall) == 0 && e.instr.Stop == isa.StopNone {
		return
	}
	if e.flags&bCtl != 0 && e.state != stDone {
		w[mCtl] |= b
	}
	if e.flags&bSyscall != 0 {
		w[mSys] |= b
	}
	if !(e.state == stDone && e.onPath() && !e.stopHit) {
		w[mBar] |= b
	}
}
