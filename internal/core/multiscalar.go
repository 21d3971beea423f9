package core

import (
	"fmt"
	"math/bits"

	"multiscalar/internal/arb"
	"multiscalar/internal/interp"
	"multiscalar/internal/isa"
	"multiscalar/internal/mem"
	"multiscalar/internal/predict"
	"multiscalar/internal/pu"
	"multiscalar/internal/trace"
)

// taskState is the sequencer's bookkeeping for one assigned task.
type taskState struct {
	desc       *isa.TaskDescriptor
	entry      uint32
	assignedAt uint64
	seq        int32 // assignment sequence number (trace task id)

	// Registers this task has forwarded on the ring, kept for register
	// file rebuilds after squashes. A mask plus a flat array (rather than
	// a map) so squash-and-restart resets are a single store and task
	// assignment allocates nothing per register.
	sentMask isa.RegMask
	sentVals [isa.NumRegs]sentValue

	// Prediction bookkeeping for this task's successor, filled when the
	// successor is chosen.
	predMade   bool
	predCounts bool // whether it counts toward accuracy statistics
	predIdx    int
	predEntry  uint32
	histBefore uint16
	histSnap   [64]uint16
	rasSnap    predict.RAS
	// validated is set once this task's successor prediction has been
	// checked against its actual exit (which happens as soon as the task
	// completes — §3.1.2: the exit point is known then, not at retire).
	validated bool
}

// sentValue records one forwarded register for rebuild after squashes.
type sentValue struct {
	val  interp.Value
	when uint64 // cycle the value left the unit
}

// pendingAssign is an assignment waiting on the task-descriptor cache.
type pendingAssign struct {
	valid bool
	ready uint64
	entry uint32
	desc  *isa.TaskDescriptor
}

// Multiscalar is the processor of Figure 1: NumUnits processing units in a
// circular queue, a sequencer walking the CFG task by task, a register
// forwarding ring, an ARB, per-unit instruction caches and interleaved
// data banks behind a crossbar, all sharing one memory bus.
type Multiscalar struct {
	// What every unit reads and writes as data: the head and active count,
	// the ARB, data banks and memory, this cycle's violation, the
	// shared-FU claims and the completed units (pu.Shared).
	pu.Shared

	cfg  Config
	prog *isa.Program
	env  *interp.SysEnv

	// implicit is the one task of a program without descriptors (the
	// scalar baseline, DESIGN.md §4): the whole program from wherever
	// execution starts, no targets, empty create mask; nil otherwise.
	// startFCC is the condition flag a warm start in mid-program seeds
	// into that task's unit (InjectWarm).
	implicit *isa.TaskDescriptor
	startFCC bool

	bus     *mem.Bus
	icaches []*mem.Cache

	units []*pu.Unit
	rfs   []*pu.RegFile
	tasks []*taskState
	// taskPool backs tasks: assignment is frequent (every task is one)
	// and a taskState is never referenced after its tasks slot is
	// cleared, so doAssign reuses the unit's pooled state instead of
	// heap-allocating per task.
	taskPool []taskState

	predictor predict.TaskPredictor
	ras       predict.RAS
	descCache *mem.Cache

	forced      uint32 // next task entry when known exactly
	forcedValid bool
	terminal    bool
	pending     pendingAssign

	// Ring send bandwidth tracking, per unit.
	sendAt   []uint64
	sendN    []int
	sendBusy []uint64

	// archRegs is the committed register state as of the most recently
	// retired task; it seeds the register file of newly assigned tasks.
	archRegs [isa.NumRegs]interp.Value

	finished bool
	now      uint64

	// Wakeup scheduler (docs/perf.md). wake[i] is the first cycle unit i
	// is ticked again: after a Tick that progressed nothing it sleeps until
	// its own next latched timestamp, or until something that can change
	// its next Tick lowers the entry (a ring delivery it waits on, becoming
	// the head, a start or squash). asleep has bit i set while unit i
	// sleeps past the current cycle and soonest bounds their wakes from
	// below, so the sweep visits the awake units only and looks at the
	// sleepers only on a cycle one of them may be due. A sleeper's stall
	// cycles are charged in bulk: its ActCounts cover the cycles before
	// counted[i], and are settled up to swept — where this cycle's sweep
	// has got to, now before and during it and now+1 after — when it
	// wakes and before they are read. progress records whether the sequencer changed any
	// state this cycle (assignment, prediction, forward, validation,
	// squash, retire). ticked counts the loop iterations executed,
	// unitTicks the unit Ticks.
	wake      []uint64
	counted   []uint64
	asleep    uint32
	soonest   uint64
	swept     uint64
	progress  bool
	ticked    uint64
	unitTicks uint64

	// Event tracing (Config.Sink). nextSeq numbers task assignments so
	// every trace event about a task carries a stable identity.
	sink    trace.Sink
	nextSeq int32

	// Checkpoint hook (ScheduleCheckpoint).
	chkAt uint64
	chkFn func() error

	// Commit limit (SetCommitLimit): pause the run once this many
	// instructions have committed.
	limit uint64

	// Statistics.
	committed      uint64
	tasksRetired   uint64
	tasksSquashed  uint64
	ctlSquashes    uint64
	ringSends      uint64
	memSquashes    uint64
	arbSquashes    uint64
	predictions    uint64
	predCorrect    uint64
	activity       [pu.NumActivities]uint64
	squashedCycles uint64
}

// NewMultiscalar builds the machine cfg describes for a program. A binary
// without task descriptors is one task on one unit — the scalar baseline,
// ScalarConfig — and is refused by anything wider. Its descriptor is the
// machine's, not the binary's, so assigning it fetches nothing, and with
// no second task to disambiguate against the ARB has zero entries: every
// load reads memory and every (head) store writes it.
func NewMultiscalar(prog *isa.Program, env *interp.SysEnv, cfg Config) (*Multiscalar, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Multiscalar{
		cfg:  cfg,
		prog: prog,
		env:  env,
		bus:  mem.NewBus(),
		sink: cfg.Sink,
	}
	m.Shared = pu.Shared{
		NumUnits:       cfg.NumUnits,
		Backing:        mem.NewMemoryFromImage(interp.ProgramImage(prog)),
		Viol:           -1,
		SharedFUs:      cfg.SharedFPUnits,
		Forward:        m.forward,
		Syscall:        m.syscall,
		OverflowSquash: m.arbOverflowSquash,
	}
	arbEntries := cfg.ARBEntries
	switch {
	case len(prog.Tasks) > 0:
		if prog.TaskAt(prog.Entry) == nil {
			return nil, fmt.Errorf("core: no task descriptor at program entry 0x%x", prog.Entry)
		}
	case cfg.NumUnits == 1:
		m.implicit = &isa.TaskDescriptor{Name: "program", Entry: prog.Entry}
		arbEntries = 0
	default:
		return nil, fmt.Errorf("core: program has no task descriptors (assemble in multiscalar mode or run taskpart)")
	}
	m.DCache = mem.NewBankedDCache(cfg.NumBanks(), cfg.DBankBytes, cfg.DBlockBytes, cfg.DCacheHit, cfg.NumMSHRs, m.bus)
	m.ARB = arb.New(cfg.NumUnits, cfg.NumBanks(), arbEntries, cfg.ARBPolicy)
	m.descCache = mem.NewCache("desccache", cfg.DescCacheEntries*16, 16, 0, 1, m.bus)
	if m.sink != nil {
		m.bus.Sink = m.sink
		m.ARB.Sink = m.sink
		m.descCache.Sink, m.descCache.SinkKind, m.descCache.SinkID = m.sink, trace.KDescMiss, -1
		for i, b := range m.DCache.Banks {
			b.Sink, b.SinkKind, b.SinkID = m.sink, trace.KDCacheMiss, int8(i)
		}
		m.predictor.Sink, m.predictor.Now = m.sink, &m.now
	}

	ucfg := pu.Config{
		IssueWidth:    cfg.IssueWidth,
		OutOfOrder:    cfg.OutOfOrder,
		ROBSize:       cfg.ROBSize,
		FetchQSize:    cfg.FetchQSize,
		Latencies:     cfg.Latencies,
		BranchEntries: cfg.BranchEntries,
		Sink:          cfg.Sink,
	}
	for i := 0; i < cfg.NumUnits; i++ {
		ic := mem.NewCache("icache", cfg.ICacheBytes, cfg.ICacheBlock, 0, cfg.NumMSHRs, m.bus)
		if m.sink != nil {
			ic.Sink, ic.SinkKind, ic.SinkID = m.sink, trace.KICacheMiss, int8(i)
		}
		m.icaches = append(m.icaches, ic)
		rf := &pu.RegFile{}
		m.rfs = append(m.rfs, rf)
		m.units = append(m.units, pu.New(i, ucfg, prog, pu.Ext{Shared: &m.Shared, Regs: rf, ICache: ic}))
		m.tasks = append(m.tasks, nil)
	}
	m.taskPool = make([]taskState, cfg.NumUnits)
	m.sendAt = make([]uint64, cfg.NumUnits)
	m.sendN = make([]int, cfg.NumUnits)
	m.sendBusy = make([]uint64, cfg.NumUnits)
	m.wake = make([]uint64, cfg.NumUnits)
	m.counted = make([]uint64, cfg.NumUnits)

	// Initial architectural register state.
	m.archRegs[isa.RegSP] = interp.IntVal(isa.StackTop)
	m.archRegs[isa.RegGP] = interp.IntVal(isa.DataBase)

	m.forced = prog.Entry
	m.forcedValid = true
	return m, nil
}

func (m *Multiscalar) withinActive(u int) bool { return m.Dist(u) < m.Active }

// taskAt is the descriptor lookup: the binary's table, or the implicit
// task, which starts wherever execution does.
func (m *Multiscalar) taskAt(entry uint32) *isa.TaskDescriptor {
	if m.implicit != nil {
		return m.implicit
	}
	return m.prog.TaskAt(entry)
}

// committedNow is the count the commit limit and Result read: whole
// tasks, except that the implicit task is the head from first cycle to
// last — never speculative — so it commits as its instructions retire.
func (m *Multiscalar) committedNow() uint64 {
	if m.implicit != nil && !m.finished {
		return m.units[0].Retired
	}
	return m.committed
}

// Run executes the program to completion.
//
// The loop is event-driven per unit: a unit whose Tick progressed nothing
// — it issued, retired, completed, dispatched, fetched nothing and
// touched neither the ring nor the memory system — is not ticked again
// before its wake cycle, because every Tick until then would provably be
// the same no-op with the same activity class (DESIGN.md §5). The sweep
// visits the awake units only; the cycles a unit sleeps through are
// charged to that class in bulk, as the dense loop would have counted
// them at its slot, when it wakes or its counts are read. When every unit
// is asleep and the sequencer did nothing either, the whole cycle repeats
// unchanged until the earliest wake, so the clock jumps there. Result and
// event traces are bit-identical either way (Config.NoSkip never sleeps
// and never jumps — the dense reference; see docs/perf.md for the
// argument).
func (m *Multiscalar) Run() (*Result, error) {
	sleep, all := !m.cfg.NoSkip, uint32(uint64(1)<<m.cfg.NumUnits-1)
	for !m.finished {
		m.swept = m.now
		if m.chkFn != nil && m.now >= m.chkAt {
			fn := m.chkFn
			m.chkFn = nil
			if err := fn(); err != nil {
				return nil, err
			}
		}
		if m.limit > 0 && m.committedNow() >= m.limit {
			return m.result(), nil
		}
		if m.now >= m.cfg.MaxCycles {
			return nil, fmt.Errorf("core: multiscalar run exceeded %d cycles (deadlock?)", m.cfg.MaxCycles)
		}
		m.ticked++
		m.progress = false
		if m.sink != nil {
			m.ARB.Now = m.now // the ARB has no clock of its own
		}
		if m.Active < m.cfg.NumUnits && !m.terminal {
			if err := m.assign(m.now); err != nil {
				return nil, err
			}
		}
		if m.now >= m.soonest {
			m.wakeDue()
		}
		if err := m.sweep(sleep, all); err != nil {
			return nil, err
		}
		// Idle accounting: units that had no task during this cycle's
		// sweep (before retire/squash frees units). A unit is active exactly
		// while it holds one of the m.Active tasks — assignment, squashes
		// and retirement change both together, and a restart keeps both.
		m.activity[pu.ActIdle] += uint64(m.cfg.NumUnits - m.Active)
		if m.env.Exited {
			m.finish()
			break
		}
		if m.Viol >= 0 {
			m.memoryViolationSquash(m.now)
		}
		if m.Completed != 0 { // the only cycles with anything to validate or retire
			m.validateCompleted(m.now)
			if err := m.retire(m.now); err != nil {
				return nil, err
			}
		}
		if !m.progress && m.asleep == all {
			if t := m.nextWake(); t > m.now+1 {
				m.skipTo(t)
				continue
			}
		}
		m.now++
	}
	if m.sink != nil {
		m.sink.Emit(trace.Event{Cycle: m.now, Kind: trace.KRunEnd, Unit: -1, Task: -1, Arg2: m.now})
	}
	return m.result(), nil
}

// sweep ticks the awake units in head order. A unit whose Tick progressed
// nothing goes to sleep. A Tick may wake a later unit — an ARB-overflow
// squash restarts the tail, a ring delivery arrives — and then the awake
// set is read afresh.
func (m *Multiscalar) sweep(sleep bool, all uint32) error {
	for rest, seen := m.awake(all), m.asleep; rest != 0; rest &= rest - 1 {
		d := bits.TrailingZeros32(rest)
		idx := m.UnitAt(d)
		u := m.units[idx]
		m.unitTicks++
		if err := u.Tick(m.now); err != nil {
			return err
		}
		if sleep && !u.Progressed() {
			t := m.wakeAfter(idx)
			if m.wake[idx] = t; t > m.now+1 { // due next cycle: as good as awake
				m.asleep |= 1 << uint(idx)
				m.counted[idx], m.soonest = m.now+1, min(m.soonest, t)
			}
		}
		if seen&^m.asleep != 0 { // keep bit d: the loop clears it
			seen, rest = m.asleep, m.awake(all)&^(1<<uint(d)-1)|1<<uint(d)
		}
	}
	m.swept = m.now + 1
	return nil
}

// awake returns the units not asleep by distance: bit d is the unit d
// stages after the head. (With the head at 0 the left shift would be by
// the width on 32 units; masked to 0 it repeats the same bits.)
func (m *Multiscalar) awake(all uint32) uint32 {
	a, h := ^m.asleep&all, uint(m.Head)
	return (a>>h | a<<((uint(m.cfg.NumUnits)-h)&31)) & all
}

// wakeDue wakes the sleepers whose wake has come and bounds the rest.
func (m *Multiscalar) wakeDue() {
	m.soonest = pu.NoEvent
	for s := m.asleep; s != 0; s &= s - 1 {
		q := bits.TrailingZeros32(s)
		if w := m.wake[q]; w <= m.now {
			m.settle(q)
			m.asleep &^= 1 << uint(q)
		} else {
			m.soonest = min(m.soonest, w)
		}
	}
}

// wakeBy lowers unit q's wake to cycle t: at once when t has come (a
// unit restarted or delivered to mid-sweep is ticked in this sweep).
func (m *Multiscalar) wakeBy(q int, t uint64) {
	if t < m.wake[q] {
		m.wake[q], m.soonest = t, min(m.soonest, t)
		if t <= m.now {
			m.settle(q)
			m.asleep &^= 1 << uint(q)
		}
	}
}

// settle charges unit q, if asleep, the stall cycles it has slept
// through up to the sweep's position. An awake unit's counts are exact:
// it is ticked every cycle.
func (m *Multiscalar) settle(q int) {
	if c := m.counted[q]; m.asleep&(1<<uint(q)) != 0 && c < m.swept {
		m.units[q].AddStallCycles(m.swept - c)
		m.counted[q] = m.swept
	}
}

func (m *Multiscalar) finish() {
	// The head task executed the exit syscall: its work is architectural.
	if m.Active > 0 {
		u := m.units[m.Head]
		m.committed += u.Retired
		m.tasksRetired++
		m.foldActivity(m.Head, true)
		if m.sink != nil {
			m.sink.Emit(trace.Event{Cycle: m.now, Kind: trace.KTaskRetire, Unit: int8(m.Head),
				Task: m.tasks[m.Head].seq, Arg: u.ExitPC(), Arg2: u.Retired})
		}
		// Remaining in-flight tasks were beyond the program's end.
		m.squash(m.now, 1, trace.CauseDrain, 0, false)
	}
	m.now++ // the exit cycle counts
	m.finished = true
}

// wakeAfter returns the cycle unit idx must next be ticked at, given
// that its Tick this cycle progressed nothing: its own next latched
// timestamp or the arrival of an in-flight ring value one of its issue
// attempts read. A register still pending has no arrival time yet; the
// delivery that gives it one lowers the wake (forward). pu.NoEvent means
// only an external action can wake the unit.
func (m *Multiscalar) wakeAfter(idx int) uint64 {
	t := m.units[idx].NextEvent(m.now)
	rf := m.rfs[idx]
	for bm := m.units[idx].ExtWait().Minus(rf.Pending); bm != 0; bm &= bm - 1 {
		if w := rf.ReadyAt[bits.TrailingZeros64(uint64(bm))]; w < t {
			t = w
		}
	}
	return t
}

// nextWake returns the earliest future cycle at which anything in a
// machine whose units are all asleep can change state: a unit's wake or
// the pending assignment's descriptor fetch completing. pu.NoEvent means
// no latched event exists; the machine is deadlocked and the jump clamps
// to MaxCycles, where Run reports it exactly as the dense loop would.
func (m *Multiscalar) nextWake() uint64 {
	m.wakeDue() // every unit sleeps past now: soonest becomes their earliest wake
	if m.pending.valid && m.pending.ready > m.now {
		return min(m.soonest, m.pending.ready)
	}
	return m.soonest
}

// skipTo advances the clock from now to cycle t (exclusive of the cycle
// already executed at now), charging the skipped cycles to the machine
// idle counter the dense loop would have incremented one cycle at a time.
// Every unit is asleep through them, and no wake fires before t, so each
// is charged in bulk like any other sleep (settle).
func (m *Multiscalar) skipTo(t uint64) {
	if t > m.cfg.MaxCycles {
		t = m.cfg.MaxCycles
	}
	m.activity[pu.ActIdle] += (t - (m.now + 1)) * uint64(m.cfg.NumUnits-m.Active)
	m.now = t
}

func (m *Multiscalar) foldActivity(unit int, retired bool) {
	m.settle(unit)
	u := m.units[unit]
	for a := pu.ActCompute; a < pu.NumActivities; a++ {
		if retired {
			m.activity[a] += u.ActCounts[a]
		} else {
			m.squashedCycles += u.ActCounts[a]
		}
		if m.sink != nil && u.ActCounts[a] > 0 {
			arg := uint32(a)
			if !retired {
				arg |= trace.ActivitySquashed
			}
			m.sink.Emit(trace.Event{Cycle: m.now, Kind: trace.KTaskActivity, Unit: int8(unit),
				Task: m.tasks[unit].seq, Arg: arg, Arg2: u.ActCounts[a]})
		}
	}
}

// ARBStats exposes the ARB's counter surface — aggregates plus the
// per-bank breakdown — for callers that own the machine (the litmus
// stress fuzzer's histograms). Result carries the aggregate totals.
func (m *Multiscalar) ARBStats() arb.Stats { return m.ARB.Stats() }

// SetCommitLimit arranges for Run to pause — return the Result so far
// without finishing the program — once at least n instructions have
// committed (task commit is the granularity for a program with
// descriptors: the machine commits whole tasks, so the pause lands on
// the first task-retire cycle at or past n; the implicit task of a
// program without them commits instruction by instruction). The pause
// touches no machine state: calling Run again resumes
// exactly where the paused run stopped and the eventual results are
// identical to an uninterrupted run. The sampled-simulation engine
// uses two pauses per detailed window to delimit the measured region.
// 0 clears the limit.
func (m *Multiscalar) SetCommitLimit(n uint64) { m.limit = n }

func (m *Multiscalar) result() *Result {
	var imiss uint64
	for _, ic := range m.icaches {
		imiss += ic.Misses
	}
	astats := m.ARB.Stats()
	return &Result{
		Cycles:           m.now,
		CyclesTicked:     m.ticked,
		UnitTicks:        m.unitTicks,
		Committed:        m.committedNow(),
		Out:              m.env.Out.String(),
		ExitCode:         m.env.ExitCode,
		TasksRetired:     m.tasksRetired,
		TasksSquashed:    m.tasksSquashed,
		CtlSquashes:      m.ctlSquashes,
		MemSquashes:      m.memSquashes,
		ARBSquashes:      m.arbSquashes,
		RingSends:        m.ringSends,
		Predictions:      m.predictions,
		PredCorrect:      m.predCorrect,
		Activity:         m.activity,
		SquashedCycles:   m.squashedCycles,
		ICacheMisses:     imiss,
		DCacheMisses:     m.DCache.Misses(),
		DBankConflicts:   m.DCache.Conflicts,
		BusRequests:      m.bus.Requests,
		ARBViolations:    m.ARB.Violations,
		ARBOverflows:     m.ARB.Overflows,
		ARBStoreForwards: m.ARB.StoreForwards,
		ARBAllocs:        astats.Allocs,
		ARBPeakOccupancy: astats.MaxOccupancy,
	}
}
