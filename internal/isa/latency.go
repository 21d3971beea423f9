package isa

// Latencies gives the functional-unit latency, in cycles, for each
// operation category. The defaults reproduce Table 1 of the paper. Memory
// operations report the address-generation/occupancy latency here; the
// cache access time on top of it belongs to the memory model (Section 5.1:
// 2-cycle dcache hits for multiscalar units, 1 cycle for the scalar
// processor).
type Latencies struct {
	IntAddSub  int
	ShiftLogic int
	IntMul     int
	IntDiv     int
	MemStore   int
	MemLoad    int
	Branch     int
	SPAddSub   int
	SPMul      int
	SPDiv      int
	DPAddSub   int
	DPMul      int
	DPDiv      int
}

// Table1 returns the functional unit latencies from Table 1 of the paper.
func Table1() Latencies {
	return Latencies{
		IntAddSub:  1,
		ShiftLogic: 1,
		IntMul:     4,
		IntDiv:     12,
		MemStore:   1,
		MemLoad:    2,
		Branch:     1,
		SPAddSub:   2,
		SPMul:      4,
		SPDiv:      12,
		DPAddSub:   2,
		DPMul:      5,
		DPDiv:      18,
	}
}

// Of returns the execution latency of op under these latencies: the field
// the operation's latency class names. An operation whose table row names
// no class has no latency, and asking for it is a bug.
func (l Latencies) Of(op Op) int {
	switch opFacts[op].lat {
	case latOne:
		return 1
	case latIntAddSub:
		return l.IntAddSub
	case latShiftLogic:
		return l.ShiftLogic
	case latIntMul:
		return l.IntMul
	case latIntDiv:
		return l.IntDiv
	case latMemStore:
		return l.MemStore
	case latMemLoad:
		return l.MemLoad
	case latBranch:
		return l.Branch
	case latSPAddSub:
		return l.SPAddSub
	case latSPMul:
		return l.SPMul
	case latSPDiv:
		return l.SPDiv
	case latDPAddSub:
		return l.DPAddSub
	case latDPMul:
		return l.DPMul
	case latDPDiv:
		return l.DPDiv
	}
	panic("isa: " + op.String() + " has no latency class")
}
