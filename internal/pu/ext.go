package pu

import (
	"multiscalar/internal/arb"
	"multiscalar/internal/interp"
	"multiscalar/internal/isa"
	"multiscalar/internal/mem"
	"multiscalar/internal/snapshot"
)

// Shared is the machine state every unit reads and writes as data. The
// owning machine embeds it; the three actions that need the machine
// itself are its only calls back.
type Shared struct {
	NumUnits     int
	Head, Active int

	ARB     *arb.ARB
	DCache  *mem.BankedDCache
	Backing *mem.Memory

	// Viol is the distance-earliest unit this cycle's stores found had
	// loaded a stale value (-1 none), ViolAddr the store's address.
	Viol     int
	ViolAddr uint32

	// SharedFUs, when positive, is how many floating-point and how many
	// complex-integer operations may start per cycle machine-wide (Section
	// 2.3's shared FUs); FUUsed counts them for cycle FUAt.
	SharedFUs int
	FUAt      uint64
	FUUsed    [2]int

	// Completed has bit u set while unit u holds a completed task.
	Completed uint32

	// Forward sends a produced value on the ring (a forward bit or a
	// release, Section 2.2); the machine sends each register once per task.
	Forward func(unit int, now uint64, r isa.Reg, v interp.Value)
	// Syscall executes the head unit's system call at its retire and
	// returns the $v0 update.
	Syscall func(unit int) (v0 uint32, writesV0 bool, err error)
	// OverflowSquash frees ARB space under arb.PolicySquash by squashing
	// the youngest task.
	OverflowSquash func(now uint64, addr uint32)
}

// Dist is unit u's distance from the head around the circular queue and
// UnitAt its inverse, for d up to NumUnits. They wrap by comparison, not
// division: both run for every active task on every executed cycle.
func (s *Shared) Dist(u int) int {
	if u < s.Head {
		return u - s.Head + s.NumUnits
	}
	return u - s.Head
}

func (s *Shared) UnitAt(d int) int {
	if q := s.Head + d; q < s.NumUnits {
		return q
	}
	return s.Head + d - s.NumUnits
}

// Ext is one unit's view of the rest of the machine: the state the units
// share, the unit's own register file copy and its instruction cache.
type Ext struct {
	*Shared
	Regs   *RegFile
	ICache *mem.Cache
}

// RegFile is one unit's copy of the logical register file (Section 2.2),
// which the unit reads as a scoreboard: values, the cycle a ring value
// arrives, and the accum-mask reservations a predecessor has not produced
// yet. Sent (forwarded this task) and Accum are the machine's bookkeeping.
type RegFile struct {
	Vals    [isa.NumRegs]interp.Value
	ReadyAt [isa.NumRegs]uint64
	Pending isa.RegMask
	Sent    isa.RegMask
	Accum   isa.RegMask
}

// write performs a local register write at retire. It cancels any
// outstanding reservation: the task produced its own value before the
// predecessor's arrived, and sequential semantics within the task make
// the local value the right one for local reads.
func (rf *RegFile) write(r isa.Reg, v interp.Value) {
	if r != isa.RegZero {
		rf.Vals[r], rf.ReadyAt[r], rf.Pending = v, 0, rf.Pending.Clear(r)
	}
}

// Deliver installs a value arriving on the ring at cycle readyAt. Only an
// outstanding reservation accepts it: a register the task already
// produced locally ignores the older inbound value.
func (rf *RegFile) Deliver(r isa.Reg, v interp.Value, readyAt uint64) {
	if rf.Pending.Has(r) {
		rf.Vals[r], rf.ReadyAt[r], rf.Pending = v, readyAt, rf.Pending.Clear(r)
	}
}

// State walks the register file.
func (rf *RegFile) State(c *snapshot.Codec) {
	interp.RegsState(c, &rf.Vals)
	c.U64s(rf.ReadyAt[:])
	c.U64((*uint64)(&rf.Pending))
	c.U64((*uint64)(&rf.Sent))
	c.U64((*uint64)(&rf.Accum))
}

// load performs a load at execute: through the ARB, timed by the data
// bank. ok=false means the ARB bank is full: retry next cycle.
func (u *Unit) load(now uint64, op isa.Op, addr uint32) (v interp.Value, done uint64, ok bool) {
	x := u.ext.Shared
	res := x.ARB.Load(u.ID, x.Head, x.Active, addr, op.MemSize(), x.Backing)
	if res.Overflow {
		u.overflow(now, addr)
		return interp.Value{}, 0, false
	}
	return interp.LoadValue(op, res.Value), x.DCache.Access(now, addr, false), true
}

// store buffers a store in the ARB at execute, recording the violation it
// exposes, timed by the data bank. ok=false as for load.
func (u *Unit) store(now uint64, op isa.Op, addr uint32, v interp.Value) (done uint64, ok bool) {
	x := u.ext.Shared
	raw := interp.StoreValue(op, v)
	res := x.ARB.Store(u.ID, x.Head, x.Active, addr, op.MemSize(), raw)
	switch {
	case res.Overflow && u.ID == x.Head:
		// Head stores are non-speculative: with no ARB entry to be had
		// they write memory directly. No violation is possible — an entry
		// would exist if any successor had touched the location.
		x.Backing.WriteN(addr, op.MemSize(), raw)
	case res.Overflow:
		u.overflow(now, addr)
		return 0, false
	case res.Violator >= 0 && (x.Viol < 0 || x.Dist(res.Violator) < x.Dist(x.Viol)):
		x.Viol, x.ViolAddr = res.Violator, addr
	}
	return x.DCache.Access(now, addr, true), true
}

func (u *Unit) overflow(now uint64, addr uint32) {
	if x := u.ext.Shared; x.ARB.Policy == arb.PolicySquash {
		x.OverflowSquash(now, addr)
	}
}

// claimFU arbitrates the machine-wide floating-point and complex-integer
// units of the shared-FU microarchitecture.
func (s *Shared) claimFU(now uint64, class isa.FUClass) bool {
	k := 0
	if class == isa.FUComplexInt {
		k = 1
	}
	if s.FUAt != now {
		s.FUAt, s.FUUsed = now, [2]int{}
	}
	if s.FUUsed[k] >= s.SharedFUs {
		return false
	}
	s.FUUsed[k]++
	return true
}
