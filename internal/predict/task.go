// Package predict implements the control-flow prediction hardware of
// Section 5.1: the sequencer's PAs two-level task predictor with a return
// address stack, and the per-unit bimodal branch predictor used inside
// processing units.
package predict

import (
	"multiscalar/internal/isa"
	"multiscalar/internal/trace"
)

// TaskPredictor is the sequencer's control flow predictor: a PAs
// configuration with 4 targets per prediction and 6 outcome histories.
// The first level is a 64-entry table of 12-bit histories (2 bits per
// outcome); the second level is a 4096-entry pattern table of 3-bit
// entries (a hysteresis bit plus a 2-bit target number).
//
// Histories update speculatively at prediction time; the sequencer
// snapshots and restores predictor state around squashes.
type TaskPredictor struct {
	histories [64]uint16  // 12-bit per-address histories
	pattern   [4096]uint8 // 1 hysteresis bit <<2 | 2-bit target number

	// Sink, when non-nil, receives KPredIndex events for every table
	// prediction and KPredTrain events for every training update. The
	// predictor has no clock of its own, so the owning sequencer points
	// Now at its cycle counter when it attaches a sink.
	Sink trace.Sink
	Now  *uint64

	// Stats
	Predictions uint64
	Correct     uint64
}

const (
	historyBits = 12
	historyMask = (1 << historyBits) - 1
)

func (p *TaskPredictor) l1Index(taskAddr uint32) int {
	return int(taskAddr>>2) & 63
}

// Predict returns the predicted target number (0-3) for the task at
// taskAddr and speculatively shifts the outcome into the history.
func (p *TaskPredictor) Predict(taskAddr uint32) int {
	i := p.l1Index(taskAddr)
	hist := p.histories[i] & historyMask
	e := p.pattern[hist]
	tgt := int(e & 3)
	p.histories[i] = (hist<<2 | uint16(tgt)) & historyMask
	p.Predictions++
	if p.Sink != nil {
		p.Sink.Emit(trace.Event{Cycle: *p.Now, Kind: trace.KPredIndex, Unit: -1, Task: -1, Arg: taskAddr, Arg2: uint64(tgt)})
	}
	return tgt
}

// UpdateWith trains the predictor with the actual outcome of a validated
// prediction. hist must be the history captured (via History) just before
// the corresponding Predict call, so the same pattern entry is trained.
// On a misprediction the history register is repaired by re-shifting the
// actual outcome over the speculative one; the sequencer restores any
// deeper speculative shifts from its snapshot before calling this.
func (p *TaskPredictor) UpdateWith(hist uint16, taskAddr uint32, actual int, predicted int) {
	e := p.pattern[hist&historyMask]
	tgt := int(e & 3)
	conf := e >> 2
	if tgt == actual {
		conf = 1
	} else if conf == 1 {
		conf = 0
	} else {
		tgt = actual
	}
	p.pattern[hist&historyMask] = conf<<2 | uint8(tgt&3)
	if p.Sink != nil {
		p.Sink.Emit(trace.Event{Cycle: *p.Now, Kind: trace.KPredTrain, Unit: -1, Task: -1, Arg: taskAddr, Arg2: uint64(actual)})
	}
	if predicted == actual {
		p.Correct++
	} else {
		p.FixHistory(taskAddr, hist, actual)
	}
}

// History returns the current history for a task (captured by the
// sequencer before Predict so Update can index the same pattern entry).
func (p *TaskPredictor) History(taskAddr uint32) uint16 {
	return p.histories[p.l1Index(taskAddr)] & historyMask
}

// FixHistory overwrites the history register for taskAddr — used when a
// misprediction is discovered, to re-shift the actual outcome.
func (p *TaskPredictor) FixHistory(taskAddr uint32, hist uint16, actual int) {
	p.histories[p.l1Index(taskAddr)] = (hist<<2 | uint16(actual&3)) & historyMask
}

// Snapshot copies the history state (pattern tables are value-predicting
// and never rolled back, matching real designs).
func (p *TaskPredictor) Snapshot() [64]uint16 { return p.histories }

// Restore reinstates a snapshot taken before mis-speculated predictions.
func (p *TaskPredictor) Restore(s [64]uint16) { p.histories = s }

// Accuracy returns the fraction of validated predictions that were
// correct.
func (p *TaskPredictor) Accuracy() float64 {
	if p.Predictions == 0 {
		return 0
	}
	return float64(p.Correct) / float64(p.Predictions)
}

// Reset clears all predictor state and statistics (the trace wiring
// survives: it belongs to the machine, not the tables).
func (p *TaskPredictor) Reset() {
	*p = TaskPredictor{Sink: p.Sink, Now: p.Now}
}

// RAS is the sequencer's 64-entry return address stack. It is a circular
// stack: pushes beyond the capacity overwrite the oldest entries.
type RAS struct {
	entries [64]uint32
	top     int // index of next push slot
	depth   int
}

// Push records a return address.
func (r *RAS) Push(addr uint32) {
	r.entries[r.top] = addr
	r.top = (r.top + 1) % len(r.entries)
	if r.depth < len(r.entries) {
		r.depth++
	}
}

// Pop predicts a return address (0 if empty).
func (r *RAS) Pop() uint32 {
	if r.depth == 0 {
		return 0
	}
	r.top = (r.top - 1 + len(r.entries)) % len(r.entries)
	r.depth--
	return r.entries[r.top]
}

// Follow applies the stack effect of a task leaving through target number
// idx of its descriptor and returns the successor's entry: a return pops
// it off the stack (0 if empty), any other target names it, and the call
// target pushes the continuation the callee will return to.
func (r *RAS) Follow(desc *isa.TaskDescriptor, idx int) uint32 {
	entry := desc.Targets[idx]
	if entry == isa.TargetReturn {
		entry = r.Pop()
	} else if desc.PushRA != 0 && entry == desc.CallTarget {
		r.Push(desc.PushRA)
	}
	return entry
}

// Depth returns the number of live entries.
func (r *RAS) Depth() int { return r.depth }

// Snapshot captures the full stack state.
func (r *RAS) Snapshot() RAS { return *r }

// Restore reinstates a snapshot.
func (r *RAS) Restore(s RAS) { *r = s }
