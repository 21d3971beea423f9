package core

import (
	"fmt"

	"multiscalar/internal/pu"
)

// Result summarizes one simulation run.
type Result struct {
	Cycles    uint64
	Committed uint64 // dynamic instructions of retired (non-squashed) tasks

	// CyclesTicked counts the cycles the timing loop actually executed;
	// the remaining Cycles-CyclesTicked were stall cycles the wakeup
	// scheduler proved unchanging for the whole machine and accounted in
	// bulk. UnitTicks counts the unit Ticks executed within them; the
	// other CyclesTicked×units-UnitTicks were slept through by one unit
	// while others worked. Config.NoSkip forces CyclesTicked = Cycles and
	// UnitTicks = Cycles×units. Observability only: these are the two
	// Result fields that legitimately differ between sleeping and dense
	// runs. UnitTicks also differs across a restore: no snapshot carries
	// it, so a restored run counts the cycles before the checkpoint as
	// dense and resumes with every unit awake.
	CyclesTicked uint64
	UnitTicks    uint64

	// Program-visible outcome (must match the functional interpreter).
	Out      string
	ExitCode int32

	// Task-level statistics. A binary without task descriptors retires
	// one task, the whole program.
	TasksRetired  uint64
	TasksSquashed uint64
	CtlSquashes   uint64 // control (task prediction) squash events
	MemSquashes   uint64 // memory-order violation squash events
	ARBSquashes   uint64 // ARB-overflow squash events (PolicySquash)

	// RingSends counts register values actually placed on the forwarding
	// ring (each create-mask register is sent at most once per task
	// execution, by an early forward/release or by the completion flush).
	// A tighter create mask sends fewer values.
	RingSends uint64

	// Task prediction.
	Predictions uint64
	PredCorrect uint64

	// Cycle distribution across unit-cycles (Section 3): how every
	// unit-cycle was spent.
	Activity       [pu.NumActivities]uint64
	SquashedCycles uint64 // unit-cycles of work that was later squashed

	// Memory system.
	ICacheMisses   uint64
	DCacheMisses   uint64
	DBankConflicts uint64
	BusRequests    uint64

	// ARB.
	ARBViolations    uint64
	ARBOverflows     uint64
	ARBStoreForwards uint64
	ARBAllocs        uint64 // entries allocated across all banks
	// ARBPeakOccupancy is the peak entries simultaneously resident in
	// any single bank — headroom against Config.ARBEntries. The
	// per-bank breakdown is Multiscalar.ARBStats().
	ARBPeakOccupancy int
}

// IPC is committed instructions per cycle.
func (r *Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Committed) / float64(r.Cycles)
}

// PredAccuracy is the fraction of validated task predictions that were
// correct.
func (r *Result) PredAccuracy() float64 {
	if r.Predictions == 0 {
		return 0
	}
	return float64(r.PredCorrect) / float64(r.Predictions)
}

// Speedup of this run relative to a baseline cycle count.
func (r *Result) Speedup(baseline *Result) float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(baseline.Cycles) / float64(r.Cycles)
}

func (r *Result) String() string {
	s := fmt.Sprintf("cycles=%d committed=%d IPC=%.3f", r.Cycles, r.Committed, r.IPC())
	if r.TasksRetired > 1 { // one task is the whole program: no task statistics to show
		s += fmt.Sprintf(" tasks=%d squashed=%d(ctl=%d,mem=%d) pred=%.1f%%",
			r.TasksRetired, r.TasksSquashed, r.CtlSquashes, r.MemSquashes, 100*r.PredAccuracy())
	}
	return s
}
