package pu

import (
	"fmt"
	"testing"
	"unsafe"

	"multiscalar/internal/isa"
)

// TestWindowLayout pins the two sizes the window is built around: an entry
// and a word of masks are one cache line each.
func TestWindowLayout(t *testing.T) {
	if n := unsafe.Sizeof(robEntry{}); n != 64 {
		t.Errorf("robEntry is %d bytes, want 64", n)
	}
	if n := unsafe.Sizeof(winWord{}); n != 64 {
		t.Errorf("winWord is %d bytes, want 64", n)
	}
}

// checkWindow recomputes every window mask from the entries' own fields
// and the isa package's predicates — what a scan of the window would say
// — and returns the first disagreement with the masks the unit keeps.
func (u *Unit) checkWindow() error {
	want := make([]winWord, len(u.win))
	set := func(is bool, m, p int) {
		if is {
			want[p>>6][m] |= 1 << (p & 63)
		}
	}
	h := u.head()
	if h+len(u.rob) > len(u.robBuf) || (len(u.rob) > 0 && &u.robBuf[h] != &u.rob[0]) {
		return fmt.Errorf("head %d: window is not robBuf[%d:%d]", h, h, h+len(u.rob))
	}
	for i := range u.rob {
		e, in, p := &u.rob[i], u.rob[i].instr, h+i
		parked := e.state == stDispatched && e.waitOn != 0
		set(e.state == stDispatched && !parked, mTry, p)
		set(parked, mParked, p)
		set(e.state == stIssued, mIssued, p)
		set(in.Op.IsControl() && e.state != stDone, mCtl, p)
		set(in.Op.IsMem() && !e.memDone, mMem, p)
		set(in.Op == isa.OpSyscall, mSys, p)
		set(e.state == stDone && !e.fwded && (in.Op == isa.OpRelease || in.Fwd && in.Dest() != isa.RegZero), mFwd, p)
		resolved := e.state == stDone && !e.stopHit && e.actualNext == e.predictedNext
		set((in.Op.IsControl() || in.Stop != isa.StopNone || in.Op == isa.OpSyscall) && !resolved, mBar, p)

		if e.dest != in.Dest() {
			return fmt.Errorf("window[%d] %v: dest bound %v", i, in, e.dest)
		}
		if j := i - int(e.waitOn); e.waitOn != 0 && (e.state != stDispatched || j < 0 || u.rob[j].produced()) {
			return fmt.Errorf("window[%d] %v: parked %d back on an entry that has produced or left", i, in, e.waitOn)
		}
	}
	names := [numMasks]string{"try", "parked", "issued", "ctl", "mem", "sys", "fwd", "bar"}
	for k := range want {
		for m, w := range want[k] {
			if got := u.win[k][m]; got != w {
				return fmt.Errorf("mask %s word %d = %#x, a scan of window [%d,%d) says %#x", names[m], k, got, h, h+len(u.rob), w)
			}
		}
	}
	return nil
}

// remark rebuilds the masks after a test has poked entry fields directly.
func (u *Unit) remark() {
	clear(u.win)
	for i := range u.rob {
		u.mark(u.head() + i)
	}
}

// any reports whether mask m holds a slot.
func (u *Unit) any(m int) bool {
	for k := range u.win {
		if u.win[k][m] != 0 {
			return true
		}
	}
	return false
}
