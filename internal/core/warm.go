package core

import (
	"fmt"

	"multiscalar/internal/interp"
	"multiscalar/internal/isa"
	"multiscalar/internal/mem"
	"multiscalar/internal/predict"
	"multiscalar/internal/snapshot"
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
// Injection loads a WarmState into a freshly constructed machine and
// points it at the capture PC, so a detailed measurement window starts
// from state a full detailed run would plausibly have at that point.
// For a program with task descriptors the capture PC must be a task
// boundary (the sequencer can only start tasks); a program without them
// is one task that can start at any instruction.

// WarmState accumulates warm structures during functional fast-forward
// and serializes them at capture points. The warm caches are built by
// NewWarmState with the target Config's geometry; the architectural
// fields are set by the engine before each Encode.
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
}

// NewWarmState allocates warm structures matching the machine
// NewMultiscalar would build for p under cfg (the backing bus is a
// throwaway — warm structures are only ever Touched, never Accessed).
// The caller sets Env and Mem to the functional machine's and the
// per-capture fields before Encode.
func NewWarmState(p *isa.Program, cfg Config) *WarmState {
	bus := mem.NewBus()
	w := &WarmState{
		Multi:  len(p.Tasks) > 0,
		ICache: mem.NewCache("icache", cfg.ICacheBytes, cfg.ICacheBlock, 0, cfg.NumMSHRs, bus),
		DCache: mem.NewBankedDCache(cfg.NumBanks(), cfg.DBankBytes, cfg.DBlockBytes, cfg.DCacheHit, cfg.NumMSHRs, bus),
		Branch: predict.NewBranchPredictor(cfg.BranchEntries),
	}
	if w.Multi {
		w.DescCache = mem.NewCache("desccache", cfg.DescCacheEntries*16, 16, 0, 1, bus)
	}
	return w
}

// State walks the warm state: the architectural fields, then the warm
// structures in the order Encode has always written them. The shape flag
// decides which sections follow, so a capture for the other kind of
// program is refused before anything after it is read.
func (w *WarmState) State(c *snapshot.Codec) {
	c.Tag("WARM")
	multi := w.Multi
	if c.Bool(&multi); multi != w.Multi {
		c.Failf("core: warm state captured with sequencer state: %v, the program has task descriptors: %v", multi, w.Multi)
		return
	}
	c.U32(&w.PC)
	c.Bool(&w.FCC)
	interp.RegsState(c, &w.Regs)
	w.Env.State(c)
	w.Mem.State(c)
	w.ICache.State(c)
	w.DCache.State(c)
	w.Branch.State(c)
	if w.Multi {
		w.TaskPred.State(c)
		w.RAS.State(c)
		w.DescCache.State(c)
	}
}

// Encode serializes the warm state as a KindWarm snapshot (header
// cycle = ICount).
func (w *WarmState) Encode() []byte {
	// Encode has no error to return: a capture that fails one of the walk's
	// own checks fails it again in InjectWarm, which rejects it.
	data, _ := snapshot.Save(snapshot.KindWarm, w.ICount, w.State)
	return data
}

// InjectWarm loads a warm-state snapshot into a freshly constructed
// machine: execution will start at the capture PC (a task boundary, or
// any instruction of a program that is one implicit task) with the
// captured architectural state, and caches, predictors and the
// sequencer's history arrive pre-warmed. Timing state starts cold at
// cycle 0. On error the machine must not be run.
func (m *Multiscalar) InjectWarm(data []byte) error {
	if m.now != 0 || m.Active != 0 || m.finished {
		return fmt.Errorf("core: InjectWarm on a machine that has run")
	}
	// The architectural state goes straight into the machine's env and
	// backing memory; the warm tables are decoded into throwaway
	// structures for the machine to adopt, so its own statistics and
	// in-flight state stay pristine.
	w := NewWarmState(m.prog, m.cfg)
	w.Env, w.Mem = m.env, m.Backing
	if err := snapshot.Load(data, snapshot.KindWarm, w.State); err != nil {
		return err
	}
	if m.taskAt(w.PC) == nil {
		return fmt.Errorf("core: warm-state PC 0x%x is not a task boundary", w.PC)
	}
	m.archRegs = w.Regs
	for _, ic := range m.icaches {
		if !ic.AdoptTags(w.ICache) {
			return fmt.Errorf("core: warm icache geometry mismatch")
		}
	}
	for i, b := range m.DCache.Banks {
		if !b.AdoptTags(w.DCache.Banks[i]) {
			return fmt.Errorf("core: warm dcache geometry mismatch")
		}
	}
	for _, u := range m.units {
		if !u.BranchPredictor().AdoptTables(w.Branch) {
			return fmt.Errorf("core: warm branch-predictor geometry mismatch")
		}
	}
	if w.Multi {
		if !m.descCache.AdoptTags(w.DescCache) {
			return fmt.Errorf("core: warm descriptor-cache geometry mismatch")
		}
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
