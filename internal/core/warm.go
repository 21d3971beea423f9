package core

import (
	"fmt"

	"multiscalar/internal/interp"
	"multiscalar/internal/isa"
	"multiscalar/internal/mem"
	"multiscalar/internal/predict"
)

// Warm-state capture and injection for sampled simulation
// (internal/sample, docs/perf.md "Sampled simulation").
//
// A WarmState is what functional-warm fast-forward knows at an
// instruction boundary: the architectural state (PC, registers, FCC,
// memory, system environment) plus the warmed microarchitectural
// structures whose contents accumulate over the whole run — cache tag
// arrays, branch-predictor tables, and for a program with descriptors the
// task predictor, sequencer return-address stack and task-descriptor
// cache. Everything else in a timing machine (pipelines, MSHRs, the
// ARB, register-forwarding state) is short-lived and is left cold; the
// detailed window's warm-up prefix absorbs that transient.
//
// A capture shares nothing with the warming pass but the memory's
// read-only image, so the pass goes on while a window runs from it.
// Injection hands a capture to a freshly constructed machine and points
// it at the capture PC, so a detailed measurement window starts from
// state a full detailed run would plausibly have at that point. For a
// program with task descriptors the capture PC must be a task boundary
// (the sequencer can only start tasks); a program without them is one
// task that can start at any instruction.

// WarmState is warm state at an instruction boundary. The warming pass
// keeps one whose tables it trains and whose architectural fields it
// leaves unset; Capture copies it, with the functional machine's state,
// into the WarmState a window is started from.
type WarmState struct {
	// Architectural state at the capture point.
	PC     uint32
	FCC    bool
	ICount uint64 // dynamic instructions retired before this point
	Regs   [isa.NumRegs]interp.Value
	Env    *interp.SysEnv
	Mem    *mem.Memory

	// Warm microarchitectural structures (tag/table contents only; they
	// never see timing, so they carry no MSHRs or occupancy).
	ICache *mem.Cache
	DCache *mem.BankedDCache
	Branch *predict.BranchPredictor

	// Sequencer structures, captured when the program carries task
	// descriptors (Multi): with one implicit task there is nothing to
	// predict or fetch.
	Multi     bool
	TaskPred  predict.TaskPredictor
	RAS       predict.RAS
	DescCache *mem.Cache

	prog *isa.Program
	cfg  Config
}

// NewWarmState allocates cold warm structures matching the machine
// NewMultiscalar would build for p under cfg (the backing bus is a
// throwaway — warm structures are only ever Touched, never Accessed).
func NewWarmState(p *isa.Program, cfg Config) *WarmState {
	bus := mem.NewBus()
	w := &WarmState{
		Multi:  len(p.Tasks) > 0,
		ICache: mem.NewCache("icache", cfg.ICacheBytes, cfg.ICacheBlock, 0, cfg.NumMSHRs, bus),
		DCache: mem.NewBankedDCache(cfg.NumBanks(), cfg.DBankBytes, cfg.DBlockBytes, cfg.DCacheHit, cfg.NumMSHRs, bus),
		Branch: predict.NewBranchPredictor(cfg.BranchEntries),
		prog:   p,
		cfg:    cfg,
	}
	if w.Multi {
		w.DescCache = mem.NewCache("desccache", cfg.DescCacheEntries*16, 16, 0, 1, bus)
	}
	return w
}

// Capture returns a copy of w's tables with the state of the functional
// machine m at the instruction boundary (pc, icount): its registers and
// FCC, and clones of its memory and of its environment over stdin, m's
// whole input. A task exit is captured from inside its retire, before
// m's PC and count advance, which is why the boundary is passed in.
func (w *WarmState) Capture(m *interp.Machine, pc uint32, icount uint64, stdin []byte) *WarmState {
	c := NewWarmState(w.prog, w.cfg)
	c.PC, c.FCC, c.ICount, c.Regs = pc, m.FCC, icount, m.Regs
	c.Env, c.Mem = m.Env.Clone(stdin), m.Mem.Clone()
	c.ICache.AdoptTags(w.ICache)
	for i, b := range c.DCache.Banks {
		b.AdoptTags(w.DCache.Banks[i])
	}
	c.Branch.AdoptTables(w.Branch)
	if w.Multi {
		c.TaskPred, c.RAS = w.TaskPred, w.RAS
		c.DescCache.AdoptTags(w.DescCache)
	}
	return c
}

// InjectWarm starts a freshly constructed machine from a capture made
// by NewWarmState for its program and Config: execution will start at
// the capture PC (a task boundary, or any instruction of a program that
// is one implicit task) with the captured architectural state, and
// caches, predictors and the sequencer's history arrive pre-warmed.
// Timing state starts cold at cycle 0. The machine takes the capture's
// memory and environment over, so the capture must not be used again.
// On error the machine must not be run.
func (m *Multiscalar) InjectWarm(w *WarmState) error {
	if m.now != 0 || m.Active != 0 || m.finished {
		return fmt.Errorf("core: InjectWarm on a machine that has run")
	}
	if multi := m.implicit == nil; w.Multi != multi {
		return fmt.Errorf("core: warm state captured with sequencer state: %v, the program has task descriptors: %v", w.Multi, multi)
	}
	if m.taskAt(w.PC) == nil {
		return fmt.Errorf("core: warm-state PC 0x%x is not a task boundary", w.PC)
	}
	m.env, m.Backing = w.Env, w.Mem
	m.archRegs = w.Regs
	for _, ic := range m.icaches {
		ic.AdoptTags(w.ICache)
	}
	for i, b := range m.DCache.Banks {
		b.AdoptTags(w.DCache.Banks[i])
	}
	for _, u := range m.units {
		u.BranchPredictor().AdoptTables(w.Branch)
	}
	if w.Multi {
		m.descCache.AdoptTags(w.DescCache)
		m.predictor = w.TaskPred
		m.predictor.Predictions, m.predictor.Correct = 0, 0
		m.ras = w.RAS
		// FCC is not carried across task boundaries by the machine design
		// (units clear it at Start), so the captured FCC is ignored here.
	} else {
		// The implicit task resumes in the middle of the program it is.
		m.implicit.Entry = w.PC
		m.startFCC = w.FCC
	}
	m.forced = w.PC
	m.forcedValid = true
	return nil
}
