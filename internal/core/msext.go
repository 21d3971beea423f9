package core

import (
	"fmt"

	"multiscalar/internal/arb"
	"multiscalar/internal/interp"
	"multiscalar/internal/isa"
	"multiscalar/internal/mem"
	"multiscalar/internal/pu"
)

// msExt is one unit's window onto the multiscalar machine: the unit's
// register file copy with ring semantics, the ARB-mediated memory system,
// the unit's instruction cache, and head-serialized syscalls.
type msExt struct {
	m  *Multiscalar
	id int
	// The unit's own register file and instruction cache (m.rfs[id],
	// m.icaches[id]): every operand read and every fetch group goes
	// through one of them.
	rf     *regFile
	icache *mem.Cache
}

func (e *msExt) ReadReg(now uint64, r isa.Reg) (interp.Value, bool) {
	return e.rf.read(now, r)
}

func (e *msExt) WriteReg(r isa.Reg, v interp.Value) {
	e.rf.write(r, v)
}

func (e *msExt) Forward(now uint64, r isa.Reg, v interp.Value) {
	e.m.forward(e.id, now, r, v)
}

func (e *msExt) Load(now uint64, op isa.Op, addr uint32) (interp.Value, uint64, bool) {
	m := e.m
	res := m.arb.Load(e.id, m.head, m.active, addr, op.MemSize(), m.backing)
	if res.Overflow {
		if m.arb.Policy == arb.PolicySquash {
			m.arbOverflowSquash(now, addr)
		}
		return interp.Value{}, 0, false // retry next cycle
	}
	done := m.dbanks.Access(now, addr, false)
	return interp.LoadValue(op, res.Value), done, true
}

func (e *msExt) Store(now uint64, op isa.Op, addr uint32, v interp.Value) (uint64, bool) {
	m := e.m
	raw := interp.StoreValue(op, v)
	res := m.arb.Store(e.id, m.head, m.active, addr, op.MemSize(), raw)
	switch {
	case res.Overflow && e.id == m.head:
		// Head stores are non-speculative: with no ARB entry to be had
		// they write memory directly. No violation is possible — an entry
		// would exist if any successor had touched the location.
		m.backing.WriteN(addr, op.MemSize(), raw)
	case res.Overflow:
		if m.arb.Policy == arb.PolicySquash {
			m.arbOverflowSquash(now, addr)
		}
		return 0, false
	case res.Violator >= 0 && (m.viol < 0 || m.dist(res.Violator) < m.dist(m.viol)):
		// Record the distance-earliest violator seen this cycle.
		m.viol = res.Violator
		m.violAddr = addr
	}
	return m.dbanks.Access(now, addr, true), true
}

func (e *msExt) FetchDone(now uint64, groupAddr uint32) uint64 {
	return e.icache.Access(now, groupAddr, false)
}

// ClaimSharedFU arbitrates the machine-wide FP/complex-integer units when
// Config.SharedFPUnits selects the shared-FU microarchitecture.
func (e *msExt) ClaimSharedFU(now uint64, class isa.FUClass) bool {
	m := e.m
	if m.cfg.SharedFPUnits <= 0 {
		return true
	}
	idx := 0
	if class == isa.FUComplexInt {
		idx = 1
	}
	if m.sharedFUAt != now {
		m.sharedFUAt = now
		m.sharedFUUsed = [2]int{}
	}
	if m.sharedFUUsed[idx] >= m.cfg.SharedFPUnits {
		return false
	}
	m.sharedFUUsed[idx]++
	return true
}

func (e *msExt) Syscall(now uint64) (uint32, bool, bool, error) {
	m := e.m
	if e.id != m.head {
		return 0, false, false, nil // syscalls execute only at the head
	}
	rf := e.rf
	for _, r := range pu.SyscallRegs {
		if rf.pending.Has(r) {
			return 0, false, false, fmt.Errorf("core: syscall with pending register %v", r)
		}
	}
	view := &arb.View{ARB: m.arb, Unit: e.id, Head: m.head, Active: m.active, Backing: m.backing}
	ret, writes, err := m.env.Call(view,
		rf.vals[isa.RegV0].I, rf.vals[isa.RegA0].I,
		rf.vals[isa.RegA1].I, rf.vals[isa.RegA2].I, rf.vals[isa.RegA3].I)
	return ret, writes, true, err
}
