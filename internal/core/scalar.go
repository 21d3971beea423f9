package core

import (
	"fmt"

	"multiscalar/internal/interp"
	"multiscalar/internal/isa"
	"multiscalar/internal/mem"
	"multiscalar/internal/pu"
	"multiscalar/internal/trace"
)

// Scalar is the baseline processor: one processing unit (identical to a
// multiscalar unit), a 32 KB instruction cache, a 64 KB data cache with
// 1-cycle hits, and the shared memory bus — the configuration the paper's
// speedups are measured against.
type Scalar struct {
	cfg     Config
	prog    *isa.Program
	env     *interp.SysEnv
	backing *mem.Memory
	bus     *mem.Bus
	icache  *mem.Cache
	dcache  *mem.Cache
	unit    *pu.Unit
	ext     *scalarExt

	// Clock state lives on the struct (not as Run locals) so a
	// checkpoint taken mid-run captures it and Restore resumes the loop
	// where it stopped.
	now     uint64
	ticked  uint64
	started bool

	// Warm-state injection (InjectWarm): start execution at startPC
	// instead of the program entry, with startFCC seeded after Start.
	startPC  uint32
	startFCC bool

	// Commit limit (SetCommitLimit): pause the run once this many
	// instructions have committed.
	limit uint64

	// Checkpoint hook (ScheduleCheckpoint).
	chkAt uint64
	chkFn func() error
}

// NewScalar builds a scalar machine for a program.
func NewScalar(prog *isa.Program, env *interp.SysEnv, cfg Config) *Scalar {
	s := &Scalar{
		cfg:     cfg,
		prog:    prog,
		env:     env,
		backing: mem.NewMemoryFromImage(interp.ProgramImage(prog)),
		bus:     mem.NewBus(),
	}
	s.icache = mem.NewCache("icache", cfg.ICacheBytes, cfg.ICacheBlock, 0, cfg.NumMSHRs, s.bus)
	s.dcache = mem.NewCache("dcache", cfg.DBankBytes, cfg.DBlockBytes, cfg.DCacheHit, cfg.NumMSHRs, s.bus)
	if cfg.Sink != nil {
		s.bus.Sink = cfg.Sink
		s.icache.Sink, s.icache.SinkKind, s.icache.SinkID = cfg.Sink, trace.KICacheMiss, 0
		s.dcache.Sink, s.dcache.SinkKind, s.dcache.SinkID = cfg.Sink, trace.KDCacheMiss, 0
	}
	s.ext = &scalarExt{s: s}
	s.ext.regs[isa.RegSP] = interp.IntVal(isa.StackTop)
	s.ext.regs[isa.RegGP] = interp.IntVal(isa.DataBase)
	ucfg := pu.Config{
		IssueWidth:    cfg.IssueWidth,
		OutOfOrder:    cfg.OutOfOrder,
		ROBSize:       cfg.ROBSize,
		FetchQSize:    cfg.FetchQSize,
		Latencies:     cfg.Latencies,
		BranchEntries: cfg.BranchEntries,
		Sink:          cfg.Sink,
	}
	s.unit = pu.New(0, ucfg, prog, s.ext)
	return s
}

// SetCommitLimit arranges for Run to pause — return the Result so far
// without finishing the program — once at least n instructions have
// committed. Machine state is untouched by the pause: calling Run
// again (with a higher or cleared limit) resumes exactly where the
// paused run stopped, and the eventual results are identical to an
// uninterrupted run. The sampled-simulation engine uses two pauses per
// detailed window to delimit the measured region. 0 clears the limit.
func (s *Scalar) SetCommitLimit(n uint64) { s.limit = n }

// Run executes the program to completion (or resumes a restored or
// commit-limit-paused run).
func (s *Scalar) Run() (*Result, error) {
	if !s.started {
		s.started = true
		entry := s.prog.Entry
		if s.startPC != 0 {
			entry = s.startPC
		}
		if s.cfg.Sink != nil {
			s.unit.SetTraceTask(0)
			s.cfg.Sink.Emit(trace.Event{Cycle: 0, Kind: trace.KTaskAssign, Unit: 0, Task: 0, Arg: entry})
		}
		s.unit.Start(entry, 0)
		if s.startFCC {
			s.unit.SeedFCC(true)
		}
	}
	// Same wakeup scheduler as the multiscalar loop (docs/perf.md), with
	// only the unit itself to consult: after a cycle in which the unit
	// changed no state, jump to its next latched timestamp (functional-unit
	// completion or instruction-cache fill) and bulk-account the stall.
	// The scalar Ext has no external registers or sequencer, so the unit's
	// own NextEvent is the complete wakeup set.
	skip := !s.cfg.NoSkip && s.cfg.Trace == nil
	for !s.env.Exited {
		if s.chkFn != nil && s.now >= s.chkAt {
			fn := s.chkFn
			s.chkFn = nil
			if err := fn(); err != nil {
				return nil, err
			}
		}
		if s.limit > 0 && s.unit.Retired >= s.limit {
			return s.result(), nil
		}
		if s.now >= s.cfg.MaxCycles {
			return nil, fmt.Errorf("core: scalar run exceeded %d cycles", s.cfg.MaxCycles)
		}
		s.ticked++
		if err := s.unit.Tick(s.now); err != nil {
			return nil, err
		}
		if skip && !s.unit.Progressed() && !s.env.Exited {
			if t := s.unit.NextEvent(s.now); t > s.now+1 {
				if t > s.cfg.MaxCycles {
					t = s.cfg.MaxCycles
				}
				s.unit.AddStallCycles(t - (s.now + 1))
				s.now = t
				continue
			}
		}
		s.now++
	}
	if s.cfg.Sink != nil {
		s.cfg.Sink.Emit(trace.Event{Cycle: s.now, Kind: trace.KTaskRetire, Unit: 0, Task: 0,
			Arg: s.unit.ExitPC(), Arg2: s.unit.Retired})
		s.cfg.Sink.Emit(trace.Event{Cycle: s.now, Kind: trace.KRunEnd, Unit: -1, Task: -1, Arg2: s.now})
	}
	return s.result(), nil
}

// result assembles the Result for the machine's current state (used at
// run end and at commit-limit pauses).
func (s *Scalar) result() *Result {
	res := &Result{
		Cycles:       s.now,
		CyclesTicked: s.ticked,
		UnitTicks:    s.ticked, // one unit, ticked on every executed cycle
		Committed:    s.unit.Retired,
		Out:          s.env.Out.String(),
		ExitCode:     s.env.ExitCode,
		ICacheMisses: s.icache.Misses,
		DCacheMisses: s.dcache.Misses,
		BusRequests:  s.bus.Requests,
	}
	res.Activity = s.unit.ActCounts
	return res
}

// Memory exposes the backing store (for test assertions).
func (s *Scalar) Memory() *mem.Memory { return s.backing }

// Registers exposes final architectural registers (for test assertions).
func (s *Scalar) Registers() [isa.NumRegs]interp.Value { return s.ext.regs }

// scalarExt is the trivial environment: registers always ready, memory
// accessed directly with cache timing, syscalls always handled.
type scalarExt struct {
	s    *Scalar
	regs [isa.NumRegs]interp.Value
}

func (e *scalarExt) ReadReg(now uint64, r isa.Reg) (interp.Value, bool) {
	return e.regs[r], true
}

func (e *scalarExt) WriteReg(r isa.Reg, v interp.Value) {
	if r != isa.RegZero {
		e.regs[r] = v
	}
}

func (e *scalarExt) Forward(now uint64, r isa.Reg, v interp.Value) {
	// No successors on a scalar machine; forward/release bits are absent
	// from scalar binaries anyway.
}

func (e *scalarExt) Load(now uint64, op isa.Op, addr uint32) (interp.Value, uint64, bool) {
	raw := e.s.backing.ReadN(addr, op.MemSize())
	done := e.s.dcache.Access(now, addr, false)
	return interp.LoadValue(op, raw), done, true
}

func (e *scalarExt) Store(now uint64, op isa.Op, addr uint32, v interp.Value) (uint64, bool) {
	e.s.backing.WriteN(addr, op.MemSize(), interp.StoreValue(op, v))
	done := e.s.dcache.Access(now, addr, true)
	return done, true
}

func (e *scalarExt) FetchDone(now uint64, groupAddr uint32) uint64 {
	return e.s.icache.Access(now, groupAddr, false)
}

func (e *scalarExt) Syscall(now uint64) (uint32, bool, bool, error) {
	ret, writes, err := e.s.env.Call(e.s.backing,
		e.regs[isa.RegV0].I, e.regs[isa.RegA0].I,
		e.regs[isa.RegA1].I, e.regs[isa.RegA2].I, e.regs[isa.RegA3].I)
	return ret, writes, true, err
}
