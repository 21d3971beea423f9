// Package pu implements one processing unit: a 5-stage (IF/ID/EX/MEM/WB)
// pipeline configurable as 1-way or 2-way issue, in-order or out-of-order
// (Section 5.1 of the paper), with out-of-order completion, pipelined
// functional units at Table 1 latencies, non-blocking memory operations,
// and per-unit branch prediction.
//
// The same Unit type is the scalar baseline processor and each of the
// parallel units of a multiscalar processor — the paper's speedups compare
// "identical processing units". Everything outside the unit is data the
// unit reads through its Ext (ext.go): its register file copy, the
// memory hierarchy and ARB, the machine's head and active count. Sending
// on the ring, a syscall and an ARB-overflow squash are the only calls
// back into the machine.
package pu

import (
	"fmt"
	"math/bits"

	"multiscalar/internal/interp"
	"multiscalar/internal/isa"
	"multiscalar/internal/predict"
	"multiscalar/internal/trace"
)

// NoEvent is NextEvent's sentinel: the unit cannot make progress on its
// own — only an external action (a task assignment, a predecessor's
// retirement, a ring delivery) can change its state.
const NoEvent = ^uint64(0)

// Config selects the unit microarchitecture.
type Config struct {
	IssueWidth    int // 1 or 2
	OutOfOrder    bool
	ROBSize       int
	FetchQSize    int
	Latencies     isa.Latencies
	BranchEntries int // bimodal predictor entries (power of two)

	// Sink, when non-nil, receives the unit's pipeline events: activity
	// reclassifications (KUnitActivity, with window occupancy), the first
	// issue of each activation (KTaskFirstIssue), and local task
	// completion (KTaskComplete). The owner labels activations with
	// SetTraceTask.
	Sink trace.Sink
}

type robState uint8

const (
	stDispatched robState = iota
	stIssued
	stDone
)

// robEntry is one window slot, ordered to stay at exactly 64 bytes: the
// window buffer is the bulk of a unit's footprint and machines are built
// per job.
type robEntry struct {
	addr          uint32
	predictedNext uint32 // fetch-time prediction of the following PC
	instr         *isa.Instr
	doneAt        uint64 // cycle the result is available (valid in stIssued/stDone)
	val           interp.Value
	actualNext    uint32 // resolved at execute

	// Dispatch-time binding (bind). Producers are named by their distance
	// back in the window (0 = none), which stays valid as the window
	// slides: at a negative index the producer has retired and its value
	// is the register file's.
	prod    [2]uint16  // youngest older in-window writer of src[k]
	fccProd uint16     // youngest older in-window FCC setter (bc1t/bc1f)
	waitOn  uint16     // producer the entry is parked on (0 = not parked)
	src     [2]isa.Reg // decoded sources; flags&bNsrc says how many
	dest    isa.Reg    // register written at retire (RegZero = none)
	class   isa.FUClass
	flags   uint8

	state   robState
	fcc     bool
	setFCC  bool
	taken   bool
	stopHit bool // stop condition satisfied (task exit) — final at execute
	memDone bool // memory operation has accessed the ARB/cache
	fwded   bool // value already sent on the ring (operate-and-forward)
}

// robEntry.flags bits.
const (
	bNsrc     uint8 = 3 // mask: number of bound sources (0-2)
	bCtl      uint8 = 1 << 2
	bMem      uint8 = 1 << 3
	bSyscall  uint8 = 1 << 4
	bReadsFCC uint8 = 1 << 5
	bWritesRd uint8 = 1 << 6
	bSetsFCC  uint8 = 1 << 7
)

type fetchedInstr struct {
	addr          uint32
	instr         *isa.Instr
	predictedNext uint32
}

// Activity classifies what a unit did in one cycle, for the Section 3
// cycle-distribution accounting.
type Activity uint8

const (
	ActIdle       Activity = iota // no task assigned
	ActCompute                    // issued and/or retired work
	ActWaitPred                   // blocked on a value from a predecessor task
	ActWaitIntra                  // blocked on intra-task dependence / FU / cache
	ActWaitRetire                 // task complete, waiting to reach the head
	NumActivities
)

var activityNames = [NumActivities]string{"idle", "compute", "wait-pred", "wait-intra", "wait-retire"}

func (a Activity) String() string { return activityNames[a] }

// Unit is one processing unit.
type Unit struct {
	ID  int
	bit uint32 // 1 << ID
	cfg Config
	ext Ext
	bp  *predict.BranchPredictor

	prog *isa.Program

	active bool

	// Fetch state. fetchQ is a sliding window into fetchQBuf (queue.go):
	// pops advance the window, qpush compacts only at the buffer's end.
	pc           uint32
	fetchStopped bool
	fetchQ       []fetchedInstr
	fetchQBuf    []fetchedInstr
	fetchReady   uint64 // icache availability for the current group
	fetchGroup   uint32 // group address being fetched (^0 = none)

	// Window. rob slides over robBuf the same way as the fetch queue; win
	// holds its masks (window.go) and fuCap the operations of each class
	// that may start per cycle: Section 5.1 gives a unit 1 or 2 simple
	// integer FUs (matching the issue width) and 1 each of complex integer,
	// floating point, branch and memory, all pipelined.
	rob    []robEntry
	robBuf []robEntry
	win    []winWord
	fuCap  [isa.NumFUClasses]uint8
	lat    [isa.NumOps]uint64 // cfg.Latencies.Of by opcode (0 for loads and stores: the dcache times them)
	// nextDone is a lower bound on the earliest doneAt of any issued
	// entry (^0 when none), so Tick enters complete only on cycles where
	// something can finish. Entry removal (retire, flush, squash) may
	// leave it stale-low, which only costs a wasted visit.
	nextDone uint64

	// rob[i] was dispatched as sequence number headSeq+i. lastWriter[r]
	// is the youngest window entry writing r, fccWriter the youngest
	// setting the FP condition flag (below headSeq: not in the window), so
	// dispatch binds producers by lookup, not by scanning the window.
	headSeq    uint64
	lastWriter [isa.NumRegs]uint64
	fccWriter  uint64

	committedFCC bool

	// Task completion.
	done      bool
	exitPC    uint32
	exitByRet bool

	// Per-activation stats (folded into global stats by the owner at
	// retire or squash).
	Retired    uint64 // locally retired instructions this activation
	LastRetire uint64 // cycle of the unit's last retired instruction, in any activation
	ActCounts  [NumActivities]uint64
	extWait    isa.RegMask // registers an issue found unready in the register file this cycle
	issuedNow  int
	retiredNow int
	startCycle uint64
	lastAct    Activity

	// progressed records whether the last Tick changed any state — unit
	// pipeline state or, through the Ext, the machine's (a forward, a
	// cache or ARB access). After a Tick that progressed nothing, every
	// following Tick is provably the same no-op with the same activity
	// class until NextEvent fires or the owner changes one of the unit's
	// external inputs, which is what lets the wakeup scheduler leave the
	// unit asleep (docs/perf.md).
	progressed bool

	// Tracing. taskSeq labels events with the owner-assigned task
	// sequence number; emitAct deduplicates KUnitActivity events so one
	// is emitted only when the classification changes.
	sink        trace.Sink
	taskSeq     int32
	firstIssued bool
	emitAct     Activity
	emitActSet  bool
}

// New builds a unit over a program image.
func New(id int, cfg Config, prog *isa.Program, ext Ext) *Unit {
	u := &Unit{
		ID:   id,
		bit:  1 << uint(id),
		cfg:  cfg,
		ext:  ext,
		bp:   predict.NewBranchPredictor(cfg.BranchEntries),
		prog: prog,
		// Backing buffers oversized so head pops amortize to O(1)
		// (queue.go); the windows start at the front.
		fetchQBuf: make([]fetchedInstr, queueSlack*cfg.FetchQSize),
		robBuf:    make([]robEntry, queueSlack*cfg.ROBSize),
		win:       make([]winWord, (queueSlack*cfg.ROBSize+63)/64),
		fuCap:     [isa.NumFUClasses]uint8{isa.FUSimpleInt: uint8(min(cfg.IssueWidth, 2)), 1, 1, 1, 1},
		headSeq:   1, // 0 is lastWriter's "never written"

		sink:    cfg.Sink,
		taskSeq: -1,
	}
	u.fetchQ = u.fetchQBuf[:0]
	u.rob = u.robBuf[:0]
	for op := range u.lat {
		u.lat[op] = uint64(cfg.Latencies.Of(isa.Op(op)))
	}
	return u
}

// BranchPredictor exposes the unit's branch predictor (persistent
// hardware: it survives task reassignment).
func (u *Unit) BranchPredictor() *predict.BranchPredictor { return u.bp }

// Done reports whether the assigned task has completed (all instructions
// locally retired and the stop condition reached).
func (u *Unit) Done() bool { return u.done }

// ExitPC returns the address execution continues at after this task.
func (u *Unit) ExitPC() uint32 { return u.exitPC }

// ExitByReturn reports whether the task exited through a jr (return).
func (u *Unit) ExitByReturn() bool { return u.exitByRet }

// Start assigns a task starting at entry.
func (u *Unit) Start(entry uint32, now uint64) {
	u.active = true
	u.pc = entry
	u.fetchStopped = false
	u.fetchQ = u.fetchQBuf[:0]
	u.fetchGroup = ^uint32(0)
	u.fetchReady = 0
	u.clearWindow()
	u.nextDone = ^uint64(0)
	u.done = false
	u.ext.Completed &^= u.bit
	u.exitPC = 0
	u.exitByRet = false
	u.Retired = 0
	u.ActCounts = [NumActivities]uint64{}
	u.startCycle = now
	u.committedFCC = false
	u.firstIssued = false
	u.bp.ClearRAS()
}

// SeedFCC sets the committed floating-point condition flag. Start
// clears it, which is correct for multiscalar task assignment (FCC is
// not carried across task boundaries by the machine design), but a
// program that is one implicit task, resuming mid-program from warm
// state, needs the functional machine's FCC seeded after Start.
func (u *Unit) SeedFCC(v bool) { u.committedFCC = v }

// FCC is the floating-point condition flag as of the last instruction
// the unit retired.
func (u *Unit) FCC() bool { return u.committedFCC }

// StoreAhead reports whether a store in the window has reached the ARB
// or memory before its retire, so that memory runs ahead of the retired
// instructions.
func (u *Unit) StoreAhead() bool {
	for i := range u.rob {
		if e := &u.rob[i]; e.memDone && e.flags&bWritesRd == 0 {
			return true
		}
	}
	return false
}

// SetTraceTask labels this unit's subsequent trace events with the
// owner-assigned task sequence number (-1 when idle).
func (u *Unit) SetTraceTask(seq int32) { u.taskSeq = seq }

// emitActivity emits a KUnitActivity event when the cycle classification
// changes (the classification holds until the next event, so the stream
// is a run-length encoding of each unit's occupancy timeline).
func (u *Unit) emitActivity(now uint64, act Activity) {
	if u.emitActSet && act == u.emitAct {
		return
	}
	u.emitAct, u.emitActSet = act, true
	u.sink.Emit(trace.Event{Cycle: now, Kind: trace.KUnitActivity, Unit: int8(u.ID),
		Task: u.taskSeq, Arg: uint32(act), Arg2: uint64(len(u.rob))})
}

// Squash deactivates the unit, discarding all in-flight state.
func (u *Unit) Squash() {
	u.active = false
	u.fetchQ = u.fetchQBuf[:0]
	u.clearWindow()
	u.nextDone = ^uint64(0)
	u.done = false
	u.ext.Completed &^= u.bit
}

// Tick advances the unit by one cycle.
func (u *Unit) Tick(now uint64) error {
	u.progressed = false
	u.extWait = 0
	if !u.active {
		u.ActCounts[ActIdle]++
		u.lastAct = ActIdle
		if u.sink != nil {
			u.emitActivity(now, ActIdle)
		}
		return nil
	}
	u.issuedNow = 0
	u.retiredNow = 0

	// A stage with nothing to do is not entered.
	if now >= u.nextDone {
		u.complete(now)
	}
	var fwd, try uint64
	for k := range u.win {
		fwd, try = fwd|u.win[k][mFwd], try|u.win[k][mTry]
	}
	if fwd != 0 {
		u.forwardEarly(now)
	}
	var err error
	if len(u.rob) > 0 && u.rob[0].state == stDone {
		err = u.retire(now)
	}
	if err == nil && try != 0 {
		err = u.issue(now)
	}
	if err != nil {
		return err
	}
	if len(u.fetchQ) > 0 {
		u.dispatch(now)
	}
	if !u.fetchStopped && !u.done {
		u.fetch(now)
	}
	if u.issuedNow > 0 || u.retiredNow > 0 {
		u.progressed = true
	}

	u.lastAct = u.classify()
	u.ActCounts[u.lastAct]++
	if u.sink != nil {
		if !u.firstIssued && u.issuedNow > 0 {
			u.firstIssued = true
			u.sink.Emit(trace.Event{Cycle: now, Kind: trace.KTaskFirstIssue,
				Unit: int8(u.ID), Task: u.taskSeq})
		}
		u.emitActivity(now, u.lastAct)
	}
	return nil
}

func (u *Unit) classify() Activity {
	switch {
	case u.issuedNow > 0 || u.retiredNow > 0:
		return ActCompute
	case u.done:
		return ActWaitRetire
	case !u.extWait.Empty():
		return ActWaitPred
	default:
		return ActWaitIntra
	}
}

// Progressed reports whether the last Tick changed any state. The wakeup
// scheduler puts a unit to sleep only after a Tick that did not.
func (u *Unit) Progressed() bool { return u.progressed }

// ExtWait reports the registers the last Tick's issue attempts found
// unready in the register file. The owning machine translates them into a
// wakeup time from its register-file delivery timing, which the unit
// cannot see; no other register's arrival can change the next Tick.
func (u *Unit) ExtWait() isa.RegMask { return u.extWait }

// NextEvent returns the earliest future cycle at which this unit's state
// can change on its own: the earliest in-flight completion (nextDone) or
// the instruction-cache fill the fetch stage is waiting on. NoEvent
// means the unit is fully blocked on external action — an assignment, a
// predecessor's retirement or syscall turn at the head, or a ring
// delivery (see ExtWait). Waking early is always safe — the dense
// tick re-derives everything — so the scheduler relies only on the
// result never being later than the unit's true next state change;
// nextDone may be stale-low after entry removal, which just costs an
// early wake.
func (u *Unit) NextEvent(now uint64) uint64 {
	if !u.active || u.done {
		return NoEvent
	}
	t := NoEvent
	if u.nextDone > now {
		t = u.nextDone
	}
	if !u.fetchStopped && u.fetchReady > now && u.fetchReady < t {
		t = u.fetchReady
	}
	return t
}

// AddStallCycles accounts k cycles identical to the unit's last ticked
// cycle. The wakeup scheduler charges the cycles it has proven
// unchanging this way, in bulk, so the per-activity counters match the
// dense loop bit for bit (a stalled cycle's classification cannot change
// before the unit's wake cycle).
func (u *Unit) AddStallCycles(k uint64) { u.ActCounts[u.lastAct] += k }

// complete transitions issued entries whose latency has elapsed to done,
// handling branch resolution and local mis-speculation recovery.
func (u *Unit) complete(now uint64) {
	next := ^uint64(0)
	for k := range u.win {
		w := &u.win[k]
		for m := w[mIssued]; m != 0; m &= m - 1 {
			i := bits.TrailingZeros64(m)
			b, p := uint64(1)<<i, k<<6+i
			e := &u.robBuf[p]
			if e.doneAt > now {
				next = min(next, e.doneAt)
				continue
			}
			e.state = stDone
			u.progressed = true
			w[mIssued] &^= b
			w[mCtl] &^= b
			if e.wantsFwd() {
				w[mFwd] |= b
			}
			// The entries parked on this producer can be tried again.
			// (Nothing parks on a syscall — it is a barrier to issue — and
			// its $v0 is not produced until it retires.)
			if e.flags&bSyscall == 0 {
				u.unpark(p)
			}
			// Control resolution: flush younger work on a wrong path.
			if w[mBar]&b != 0 {
				switch {
				case !e.onPath():
					u.flushAfter(p, e.actualNext, e.stopHit)
				case !e.stopHit:
					w[mBar] &^= b
				case !u.fetchStopped:
					// Predicted path continued past a satisfied stop
					// condition (e.g. StopAlways known only at execute for
					// a jr): cut fetch.
					u.flushAfter(p, e.actualNext, true)
				}
				m &= w[mIssued] | b // a flush dropped the younger slots
			}
		}
	}
	u.nextDone = next
}

// onPath reports whether the executed entry went where fetch predicted.
func (e *robEntry) onPath() bool { return e.actualNext == e.predictedNext }

// wantsFwd reports whether the entry sends a value on the ring (release,
// or a forward bit on a register write) and fwdReg which register: a
// release names it as its source.
func (e *robEntry) wantsFwd() bool {
	return e.instr.Op == isa.OpRelease || e.instr.Fwd && e.dest != isa.RegZero
}
func (e *robEntry) fwdReg() isa.Reg {
	if e.dest != isa.RegZero {
		return e.dest
	}
	return e.src[0]
}

// forwardEarly implements the paper's operate-and-forward semantics: a
// completed instruction with the forward bit (or a release) sends its
// value on the ring as soon as it is locally non-speculative — every
// older instruction that could redirect control or end the task has
// resolved the same way the fetch predicted. Otherwise the forward
// happens at local retire.
func (u *Unit) forwardEarly(now uint64) {
	for k := range u.win {
		w, safe := &u.win[k], ^uint64(0)
		if bar := w[mBar]; bar != 0 {
			safe = bar ^ (bar - 1) // up to the oldest barrier, which may itself forward
		}
		for m := w[mFwd] & safe; m != 0; m &= m - 1 {
			e := &u.robBuf[k<<6+bits.TrailingZeros64(m)]
			u.ext.Forward(u.ID, now, e.fwdReg(), e.val)
			e.fwded = true
			u.progressed = true
		}
		if w[mFwd] &^= safe; w[mBar] != 0 {
			return
		}
	}
}

// flushAfter discards all entries younger than slot p and redirects
// fetch. If stopped, the task is complete at that entry and no further
// fetch happens.
func (u *Unit) flushAfter(p int, nextPC uint32, stopped bool) {
	u.rob = u.rob[:p-u.head()+1]
	for k, keep := p>>6, uint64(2)<<(p&63)-1; k < len(u.win); k, keep = k+1, 0 {
		for m := range u.win[k] {
			u.win[k][m] &= keep
		}
	}
	// Later dispatches reuse the flushed sequence numbers, so the writer
	// tables are rebuilt from the survivors. (Surviving bindings cannot
	// dangle: a consumer is always younger than its producers.)
	u.lastWriter = [isa.NumRegs]uint64{}
	u.fccWriter = 0
	for j := range u.rob {
		u.noteWriter(&u.rob[j], u.headSeq+uint64(j))
	}
	u.fetchQ = u.fetchQBuf[:0]
	u.fetchGroup = ^uint32(0)
	u.fetchStopped = stopped
	if !stopped {
		u.pc = nextPC
	}
}

// retire commits done entries from the ROB head, in order, up to the
// issue width.
func (u *Unit) retire(now uint64) error {
	for n := 0; n < u.cfg.IssueWidth && len(u.rob) > 0; n++ {
		e, h := &u.rob[0], u.head()
		if e.state != stDone {
			break
		}
		w, b := &u.win[h>>6], uint64(1)<<(h&63)
		if e.flags&bSyscall != 0 {
			if u.ID != u.ext.Head {
				break // not the head yet: syscalls are non-speculative
			}
			v0, writes, err := u.ext.Syscall(u.ID)
			if err != nil {
				return fmt.Errorf("pu%d @0x%x: %w", u.ID, e.addr, err)
			}
			if writes {
				u.ext.Regs.write(isa.RegV0, interp.IntVal(v0))
			}
		} else {
			u.ext.Regs.write(e.dest, e.val)
			if e.setFCC {
				u.committedFCC = e.fcc
			}
			if w[mFwd]&b != 0 { // not sent early
				u.ext.Forward(u.ID, now, e.fwdReg(), e.val)
			}
		}

		u.Retired++
		u.retiredNow++
		u.LastRetire = now
		u.rob = u.rob[1:] // head pop: the window slides, nothing moves
		u.headSeq++
		w[mSys], w[mFwd], w[mBar] = w[mSys]&^b, w[mFwd]&^b, w[mBar]&^b // all a done entry can hold
		if e.stopHit {
			u.done = true
			u.ext.Completed |= u.bit
			u.exitPC = e.actualNext
			u.exitByRet = e.instr.Op == isa.OpJr
			u.clearWindow()
			u.fetchQ = u.fetchQBuf[:0]
			u.fetchStopped = true
			if u.sink != nil {
				u.sink.Emit(trace.Event{Cycle: now, Kind: trace.KTaskComplete,
					Unit: int8(u.ID), Task: u.taskSeq, Arg: u.exitPC})
			}
			break
		}
	}
	return nil
}
