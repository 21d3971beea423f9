// Package trace is the simulator's event-monitoring layer: a typed,
// cycle-stamped event stream emitted by the timing cores (task lifecycle,
// per-unit pipeline occupancy, register-ring traffic, ARB and memory
// system activity) behind a Sink interface that costs nothing when no
// sink is attached.
//
// Producers guard every emission with a nil check, so the disabled path
// adds no allocations and no calls to the simulator's hot loops; the
// performance ledger (benchmark/, trace_overhead_pct) holds the producers
// to that contract. Enabled, events flow to an in-memory Collector or to a
// streaming Writer that persists the compact binary .mstrc format
// rendered by cmd/mstrace (see docs/tracing.md).
package trace

import "fmt"

// Kind identifies what an Event records. The zero value is reserved as
// the stream terminator in the binary format.
type Kind uint8

const (
	// KRunEnd closes a trace: Arg2 is the run's total cycle count.
	KRunEnd Kind = iota + 1

	// Task lifecycle (multiscalar runs). Task numbers are assignment
	// sequence numbers, starting at 0 for the task at the program entry.

	// KTaskPredict: the sequencer chose a successor for task Task (on
	// Unit); Arg is the predicted entry address.
	KTaskPredict
	// KTaskAssign: a new task Task started on Unit; Arg is its entry.
	KTaskAssign
	// KTaskRestart: task Task re-started on Unit after a memory-order or
	// ARB-overflow squash; Arg is its entry.
	KTaskRestart
	// KTaskFirstIssue: the first instruction of this activation issued.
	KTaskFirstIssue
	// KTaskComplete: the task's stop condition retired locally; Arg is
	// the exit PC. The task now waits to reach the head and retire.
	KTaskComplete
	// KTaskRetire: the task retired at the head; Arg is the exit PC,
	// Arg2 the instructions it committed.
	KTaskRetire
	// KTaskSquash: the activation was squashed; Arg is the Cause*
	// code. Arg2 packs the unit's distance from the head when squashed
	// (the restart distance: how much of the window the squash
	// discarded) and, for memory and ARB causes, the conflicting
	// address and its ARB bank — build with SquashArg2, read with
	// SquashDist and SquashConflict.
	KTaskSquash
	// KTaskActivity: end-of-activation cycle accounting, one event per
	// non-zero activity class. Arg is the class (the pu.Activity value)
	// with bit 8 set when the activation was squashed (the cycles count
	// as squashed work, not useful Activity); Arg2 is the cycle count.
	KTaskActivity

	// Sequencer prediction.

	// KPredValidate: task Task's successor prediction was checked
	// against its actual exit; Arg is the actual entry, Arg2 is 1 for a
	// hit and 0 for a miss.
	KPredValidate
	// KPredIndex: the task predictor produced a target index for the
	// task at entry Arg; Arg2 is the index.
	KPredIndex
	// KPredTrain: the predictor trained on a validated outcome for the
	// task at entry Arg; Arg2 is the actual target index.
	KPredTrain

	// Per-unit pipeline occupancy.

	// KUnitActivity: Unit's cycle classification changed to Arg (a
	// pu.Activity value); Arg2 is the instruction-window occupancy. The
	// classification holds until the unit's next KUnitActivity event.
	KUnitActivity

	// Register forwarding ring.

	// KRingSend: Unit sent register Arg on the ring (a forward-bit,
	// release, or end-of-task flush send) for task Task.
	KRingSend

	// Address Resolution Buffer.

	// KARBAlloc: a new ARB entry was allocated for the chunk at Arg.
	KARBAlloc
	// KARBOverflow: an ARB bank had no free entry for Arg.
	KARBOverflow
	// KARBViolation: a store to Arg exposed a memory-order violation;
	// Unit is the violating (to-be-squashed) load's unit.
	KARBViolation

	// Memory system.

	// KICacheMiss: Unit's instruction cache missed at Arg.
	KICacheMiss
	// KDCacheMiss: data bank Unit missed at Arg.
	KDCacheMiss
	// KDescMiss: the task-descriptor cache missed at Arg.
	KDescMiss
	// KBusRequest: the shared bus accepted a transfer; Arg2 is its
	// duration in cycles.
	KBusRequest

	numKinds
)

var kindNames = [numKinds]string{
	KRunEnd:         "run-end",
	KTaskPredict:    "task-predict",
	KTaskAssign:     "task-assign",
	KTaskRestart:    "task-restart",
	KTaskFirstIssue: "task-first-issue",
	KTaskComplete:   "task-complete",
	KTaskRetire:     "task-retire",
	KTaskSquash:     "task-squash",
	KTaskActivity:   "task-activity",
	KPredValidate:   "pred-validate",
	KPredIndex:      "pred-index",
	KPredTrain:      "pred-train",
	KUnitActivity:   "unit-activity",
	KRingSend:       "ring-send",
	KARBAlloc:       "arb-alloc",
	KARBOverflow:    "arb-overflow",
	KARBViolation:   "arb-violation",
	KICacheMiss:     "icache-miss",
	KDCacheMiss:     "dcache-miss",
	KDescMiss:       "desc-miss",
	KBusRequest:     "bus-request",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Squash causes (KTaskSquash.Arg).
const (
	CauseControl = 0 // successor misprediction (control squash)
	CauseMemory  = 1 // memory-order violation (task restarts)
	CauseARB     = 2 // ARB overflow under PolicySquash (task restarts)
	CauseDrain   = 3 // in flight past the program's exit at run end
)

var causeNames = [...]string{"control", "memory", "arb", "drain"}

// CauseName renders a KTaskSquash cause code.
func CauseName(c uint32) string {
	if int(c) < len(causeNames) {
		return causeNames[c]
	}
	return fmt.Sprintf("cause(%d)", c)
}

// ActivitySquashed is the KTaskActivity.Arg flag marking cycles that
// belong to a squashed activation.
const ActivitySquashed = 1 << 8

// KTaskSquash.Arg2 layout: bits 0-7 restart distance, bits 8-15 the
// conflicting address's ARB bank plus one (0 = no conflict detail:
// control and drain squashes encode to the bare distance, identical
// to the pre-detail format), bits 16-47 the conflicting address. The
// conflict detail names the access that triggered a memory-violation
// or ARB-overflow squash so litmus repro dumps can point at it.
const (
	squashDistBits = 8
	squashBankBits = 8
	squashDistMask = 1<<squashDistBits - 1
	squashBankMask = 1<<squashBankBits - 1
)

// SquashArg2 packs a KTaskSquash Arg2. bank < 0 means no conflict
// detail (control or drain squash).
func SquashArg2(dist uint64, addr uint32, bank int) uint64 {
	v := dist & squashDistMask
	if bank >= 0 {
		v |= uint64((bank+1)&squashBankMask) << squashDistBits
		v |= uint64(addr) << (squashDistBits + squashBankBits)
	}
	return v
}

// SquashDist extracts the restart distance from a KTaskSquash Arg2.
func SquashDist(arg2 uint64) uint64 { return arg2 & squashDistMask }

// SquashConflict extracts the conflicting address and ARB bank from a
// KTaskSquash Arg2; ok is false when the event carries no conflict
// detail (control and drain squashes).
func SquashConflict(arg2 uint64) (addr uint32, bank int, ok bool) {
	b := arg2 >> squashDistBits & squashBankMask
	if b == 0 {
		return 0, 0, false
	}
	return uint32(arg2 >> (squashDistBits + squashBankBits)), int(b - 1), true
}

// Event is one cycle-stamped occurrence. The meaning of Unit, Task, Arg
// and Arg2 depends on Kind (see the Kind constants); Unit is -1 and Task
// is -1 when not applicable.
type Event struct {
	Cycle uint64
	Kind  Kind
	Unit  int8
	Task  int32
	Arg   uint32
	Arg2  uint64
}

func (e Event) String() string {
	return fmt.Sprintf("%8d %-16s unit=%d task=%d arg=0x%x arg2=%d",
		e.Cycle, e.Kind, e.Unit, e.Task, e.Arg, e.Arg2)
}

// Sink receives events as the simulation produces them. Emit is called
// from the simulator's inner loops: implementations must not retain
// pointers into the caller and should be cheap. Events arrive in
// emission order, which is almost — but not exactly — cycle order (ring
// sends are stamped with their paced send slot, which can run ahead of
// the emitting cycle), so readers must not assume monotonic cycles.
type Sink interface {
	Emit(e Event)
}

// Collector is an in-memory Sink.
type Collector struct {
	Events []Event
}

// Emit appends the event.
func (c *Collector) Emit(e Event) { c.Events = append(c.Events, e) }

// Meta describes the run a trace was recorded from: the unit count
// (Perfetto tracks, timeline columns), an optional label, and the
// program's task descriptor names so renderers can name task spans
// without the binary.
type Meta struct {
	NumUnits int
	Label    string
	Tasks    map[uint32]string // task entry address -> descriptor name
}

// TaskName resolves a task entry address (empty string if unknown).
func (m *Meta) TaskName(entry uint32) string {
	if m.Tasks == nil {
		return ""
	}
	return m.Tasks[entry]
}
