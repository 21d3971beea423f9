package isa

// Latencies gives the functional-unit latency, in cycles, for each
// operation category. The defaults reproduce Table 1 of the paper. Loads
// and stores have no field: they occupy no functional unit past issue and
// complete at their data cache access, so their time is the memory
// model's (Section 5.1: 2-cycle dcache hits for multiscalar units, 1 cycle
// for the scalar processor), and Table 1's two memory rows are printed,
// not set.
type Latencies struct {
	IntAddSub  int
	ShiftLogic int
	IntMul     int
	IntDiv     int
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
// its latency class names, or 0 for a load or store (latMem), which has
// no functional-unit latency.
func (l Latencies) Of(op Op) int {
	return [...]int{
		latOne: 1, latIntAddSub: l.IntAddSub, latShiftLogic: l.ShiftLogic,
		latIntMul: l.IntMul, latIntDiv: l.IntDiv, latMem: 0, latBranch: l.Branch,
		latSPAddSub: l.SPAddSub, latSPMul: l.SPMul, latSPDiv: l.SPDiv,
		latDPAddSub: l.DPAddSub, latDPMul: l.DPMul, latDPDiv: l.DPDiv,
	}[opFacts[op].lat]
}
