// Package taskpart is the automatic task partitioner: the compiler half of
// the multiscalar toolchain (Section 2.2 of the paper). Given an assembled
// program with no task annotations, it decides where tasks begin and end:
//
//   - task entries (natural-loop iterations, function bodies, call
//     continuations — the granularities the paper's examples use), and
//   - stop bits on every edge that leaves a task.
//
// What those decisions make of each task is not restated here. Once the
// entries are registered and the stops marked, the task is walked the way
// a processing unit executes it (cfg.Graph.TaskRegion, the walk the linter
// reads too), and the descriptor is filled in from
// that walk: the exits are the successor targets, and what the region owes
// its successors (cfg.TaskRegion.Sends) is the create mask (dead-register
// trimming) and the forward bits, one on every last update.
//
// It does not insert release instructions (that would require re-laying
// out the text); registers in the create mask that a dynamic execution
// never forwards are released by the completion flush when the task's
// stop instruction retires — the paper's baseline "wait until no further
// updates are possible" strategy. Hand-written workloads place early
// releases themselves, exactly as Figure 4 of the paper does, and the
// difference is measurable (see the release ablation benchmark).
package taskpart

import (
	"fmt"
	"sort"

	"multiscalar/internal/cfg"
	"multiscalar/internal/isa"
	"multiscalar/internal/mslint"
)

// Options control partitioning.
type Options struct {
	// SuppressFuncs lists function entry symbols whose calls should be
	// absorbed into the calling task (the paper's "suppressed functions",
	// Section 3.2.3) instead of becoming tasks of their own. Each must be
	// the target of a jal in the program.
	SuppressFuncs []string
	// SuppressAllCalls absorbs every call.
	SuppressAllCalls bool
}

// TaskInfo describes one produced task.
type TaskInfo struct {
	Desc   *isa.TaskDescriptor
	Blocks []*cfg.Block // region blocks (may be shared with other tasks)
}

// Partition is the result of partitioning.
type Partition struct {
	Graph *cfg.Graph
	Tasks []*TaskInfo
}

// Run partitions prog in place: it fills prog.Tasks and sets tag bits on
// prog.Text. prog must not already carry task annotations. The produced
// partition is held to the annotation contract (internal/mslint): a hard
// lint error indicates a partitioner bug and rejects the result.
func Run(prog *isa.Program, opt Options) (*Partition, error) {
	if len(prog.Tasks) != 0 {
		return nil, fmt.Errorf("taskpart: program already has task descriptors")
	}
	g := cfg.Build(prog)
	g.Analyze()

	called := map[uint32]bool{}
	for _, b := range g.Blocks {
		if b.CallTarget != 0 {
			called[b.CallTarget] = true
		}
	}
	suppressed := map[uint32]bool{}
	for _, name := range opt.SuppressFuncs {
		addr, ok := prog.Symbol(name)
		if !ok {
			return nil, fmt.Errorf("taskpart: suppressed function %q undefined", name)
		}
		if !called[addr] {
			return nil, fmt.Errorf("taskpart: suppressed function %q is not the target of any jal", name)
		}
		suppressed[addr] = true
	}

	p := &partitioner{prog: prog, g: g, opt: opt, suppressed: suppressed}
	p.shared = p.suppressedBlocks()
	p.chooseEntries()
	// Task entries must be block leaders; they are, because entries are
	// either loop headers, call targets, post-call continuations, or the
	// program entry — all block starts.
	//
	// A task with more exits than a descriptor can name (isa.
	// MaxTaskTargets) is split: its internal join blocks are promoted to
	// task entries and the partition is recomputed. Each round promotes
	// at least one block, so this terminates.
	var tasks []*TaskInfo
	for round := 0; ; round++ {
		p.resetTags()
		if err := p.markStops(); err != nil {
			return nil, err
		}
		var fat *TaskInfo
		var err error
		tasks, fat, err = p.buildTasks()
		if err != nil {
			return nil, err
		}
		if fat == nil {
			break
		}
		if round > len(g.Blocks) {
			return nil, fmt.Errorf("taskpart: task splitting did not converge")
		}
		if !p.splitRegion(fat) {
			return nil, fmt.Errorf("taskpart: task %s has %d exit targets (max %d) and no join block to split at; restructure the code",
				fat.Desc.Name, len(fat.Desc.Targets), isa.MaxTaskTargets)
		}
	}
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	if err := mslint.Lint(prog, nil).Err(); err != nil {
		return nil, fmt.Errorf("taskpart: produced an invalid partition (partitioner bug): %w", err)
	}
	return &Partition{Graph: g, Tasks: tasks}, nil
}

// resetTags clears the tag bits and registers a bare descriptor for every
// chosen entry before a (re)partitioning round: the region walk tells
// tasks apart by what prog.Tasks names.
func (p *partitioner) resetTags() {
	for i := range p.prog.Text {
		p.prog.Text[i].Fwd = false
		p.prog.Text[i].Stop = isa.StopNone
	}
	p.prog.Tasks = make(map[uint32]*isa.TaskDescriptor)
	for entry := range p.entries {
		if p.g.ByAddr[entry] == nil {
			continue // the continuation of a call that ends the text
		}
		td := &isa.TaskDescriptor{Name: fmt.Sprintf("t_%x", entry), Entry: entry}
		if name := p.symbolFor(entry); name != "" {
			td.Name = name
		}
		p.prog.Tasks[entry] = td
	}
}

// splitRegion promotes internal join blocks (several predecessors) of an
// oversized task to entries of their own; failing that, the successor of
// the region's first internal control split. Returns false if nothing
// could be promoted.
func (p *partitioner) splitRegion(fat *TaskInfo) bool {
	promoted := false
	for _, b := range fat.Blocks {
		if b.Start == fat.Desc.Entry || p.entries[b.Start] {
			continue
		}
		if len(b.Preds) >= 2 {
			p.entries[b.Start] = true
			promoted = true
		}
	}
	if promoted {
		return true
	}
	// No joins: promote the first internal successor block.
	for _, b := range fat.Blocks {
		for _, s := range b.Succs {
			if s.Start != fat.Desc.Entry && !p.entries[s.Start] {
				p.entries[s.Start] = true
				return true
			}
		}
	}
	return false
}

type partitioner struct {
	prog       *isa.Program
	g          *cfg.Graph
	opt        Options
	suppressed map[uint32]bool
	entries    map[uint32]bool // task entry addresses
	// shared holds the blocks of suppressed function bodies: they execute
	// inside their callers' tasks and receive neither entries nor stops.
	shared map[*cfg.Block]bool
}

// isTaskFunc reports whether a call target becomes its own task.
func (p *partitioner) isTaskFunc(addr uint32) bool {
	if p.opt.SuppressAllCalls {
		return false
	}
	return !p.suppressed[addr]
}

// suppressedBlocks returns the set of blocks belonging to suppressed
// functions (they never receive task entries of their own).
func (p *partitioner) suppressedBlocks() map[*cfg.Block]bool {
	out := map[*cfg.Block]bool{}
	var walk func(b *cfg.Block)
	walk = func(b *cfg.Block) {
		if b == nil || out[b] {
			return
		}
		out[b] = true
		for _, s := range b.Succs {
			walk(s)
		}
		if b.CallTarget != 0 && !p.isTaskFunc(b.CallTarget) {
			walk(p.g.ByAddr[b.CallTarget])
		}
	}
	for addr := range p.suppressed {
		walk(p.g.ByAddr[addr])
	}
	if p.opt.SuppressAllCalls {
		for _, b := range p.g.Blocks {
			if b.CallTarget != 0 {
				walk(p.g.ByAddr[b.CallTarget])
			}
		}
	}
	return out
}

func (p *partitioner) chooseEntries() {
	p.entries = map[uint32]bool{p.prog.Entry: true}
	for _, l := range p.g.Loops {
		if p.shared[l.Header] {
			continue
		}
		p.entries[l.Header.Start] = true
		// Loop exits become entries so the post-loop code is a task.
		for b := range l.Blocks {
			for _, s := range b.Succs {
				if !l.Blocks[s] && !p.shared[s] {
					p.entries[s.Start] = true
				}
			}
		}
	}
	for _, b := range p.g.Blocks {
		if p.shared[b] {
			continue
		}
		if b.CallTarget != 0 && p.isTaskFunc(b.CallTarget) {
			p.entries[b.CallTarget] = true // function body task
			p.entries[b.End] = true        // continuation task
		}
	}
}

// markStops sets stop bits on every edge that leaves a task region: edges
// into task entries, returns, and calls to task functions.
func (p *partitioner) markStops() error {
	// An entry past the end of the text (the continuation of a final
	// call) is no block and takes no edge.
	isEntry := func(addr uint32) bool { return p.entries[addr] && p.g.ByAddr[addr] != nil }
	for _, b := range p.g.Blocks {
		// Suppressed callee bodies execute inside their caller's task and
		// must not carry stop bits: in particular their jr returns control
		// within the task rather than ending it.
		if p.shared[b] {
			continue
		}
		lastAddr := b.End - isa.InstrSize
		last := p.prog.InstrAt(lastAddr)
		switch {
		case last.Op.IsBranch():
			switch tkn, ft := isEntry(last.Target), isEntry(b.End); {
			case tkn && ft:
				last.Stop = isa.StopAlways
			case tkn:
				last.Stop = isa.StopTaken
			case ft:
				last.Stop = isa.StopNotTaken
			}
		case last.Op == isa.OpJ:
			if isEntry(last.Target) {
				last.Stop = isa.StopAlways
			}
		case last.Op == isa.OpJal:
			if p.isTaskFunc(last.Target) {
				last.Stop = isa.StopAlways
			}
		case last.Op == isa.OpJalr:
			if !p.opt.SuppressAllCalls {
				return fmt.Errorf("taskpart: indirect call at 0x%x requires SuppressAllCalls", lastAddr)
			}
		case last.Op == isa.OpJr:
			last.Stop = isa.StopAlways
		default:
			if isEntry(b.End) {
				last.Stop = isa.StopAlways
			}
		}
	}
	return nil
}

// buildTasks fills in every registered descriptor from the walk of its
// region: targets from the exits, the create mask, forward bits. A task
// with too many exit targets is returned as `fat` for the caller to
// split.
func (p *partitioner) buildTasks() ([]*TaskInfo, *TaskInfo, error) {
	var tasks []*TaskInfo
	for _, td := range p.prog.TaskList() {
		r := p.g.TaskRegion(td)
		ti := &TaskInfo{Desc: td, Blocks: r.Blocks}
		for _, e := range r.Exits {
			if !td.HasTarget(e.Target) {
				td.Targets = append(td.Targets, e.Target)
			}
			if e.Kind == cfg.ExitCall {
				if td.PushRA != 0 && td.PushRA != e.Cont {
					return nil, nil, fmt.Errorf("taskpart: task %s has multiple call continuations", td.Name)
				}
				td.PushRA, td.CallTarget = e.Cont, e.Target
			}
		}
		sort.Slice(td.Targets, func(i, j int) bool { return td.Targets[i] < td.Targets[j] })
		if len(td.Targets) > isa.MaxTaskTargets {
			return tasks, ti, nil
		}

		// The create mask is what the region owes its successors, and a
		// forward bit goes on every last update, except on a call: a task
		// call ends the task anyway, and its $ra rides the flush.
		create, last := r.Sends()
		td.Create = create
		for a := range last {
			if in := p.prog.InstrAt(a); in.Op != isa.OpJal {
				in.Fwd = true
			}
		}
		tasks = append(tasks, ti)
	}
	return tasks, nil, nil
}

func (p *partitioner) symbolFor(addr uint32) string {
	best := ""
	for name, a := range p.prog.Symbols {
		if a == addr && (best == "" || name < best) {
			best = name
		}
	}
	return best
}
