// Package annotate is the flow-sensitive annotation optimizer: it
// tightens the Section 2.2 task annotations that the linter
// (internal/mslint) only checks. Over the shared region reconstruction
// and dataflow passes of internal/cfg it computes, per task,
//
//   - the minimal sound create mask: the registers the task may actually
//     write that are live into some declared successor. Every other bit
//     makes successors reserve — and the ring carry — a value the task
//     can only pass through (the linter's MS017) or that nobody reads
//     (MS002). Each create-mask register rides the forwarding ring
//     exactly once per task execution, so every dropped bit is a ring
//     send that no longer happens.
//   - forward-bit placement at last updates: an instruction whose
//     destination is in the create mask and that no path can write
//     after is the earliest sound send point (any earlier forward would
//     be stale, the linter's MS004); tagging it converts a
//     completion-flush send into an early one.
//   - releases on flush-only paths: a path that never writes a
//     create-mask register still owes successors the send (MS003);
//     inserting a release where the value is provably final replaces
//     the completion flush, the slow backstop, with an explicit send.
//
// Analysis produces a Plan describing the edits; Apply performs the
// binary-level subset in place (mask tightening, forward bits, dead-send
// removal), and RewriteSource performs all of them as source-level edits
// verified against the functional interpreter.
//
// Soundness is inherited from the linter's contract: the optimizer only
// shrinks create masks toward what the task owes its successors
// (cfg.TaskRegion.Sends) — the exact set MS001 requires as a lower bound
// — and only places sends at the last updates Sends names. Tasks whose
// regions the walk could not analyze (structural problems, unknown
// exits) are left untouched.
package annotate

import (
	"fmt"

	"multiscalar/internal/cfg"
	"multiscalar/internal/isa"
)

// Options controls one analysis.
type Options struct {
	// InsertReleases plans release insertions on flush-only paths.
	// Insertion needs new instructions, which only the source-level
	// rewrite can encode; Apply ignores planned insertions, so binary
	// pipelines leave it false.
	InsertReleases bool
}

// TaskPlan is the planned edit set for one task.
type TaskPlan struct {
	TD        *isa.TaskDescriptor
	OldCreate isa.RegMask
	NewCreate isa.RegMask
	Drops     isa.RegMask // OldCreate − NewCreate

	// AddFwd lists instruction addresses to tag with a forward bit
	// (each is a last update of a kept create-mask register).
	AddFwd []uint32
	// DropFwd lists addresses whose forward bit is removed: the
	// register left the create mask, or the send is provably dead
	// (already sent on every path).
	DropFwd []uint32
	// DropRel maps release-instruction addresses to the register whose
	// release is removed, for the same two reasons.
	DropRel map[uint32]isa.Reg
	// AddRel maps block start addresses to the registers released
	// there (only planned under Options.InsertReleases).
	AddRel map[uint32]isa.RegMask

	// Skipped, when non-empty, is the reason the task was left alone.
	Skipped string
}

// Changed reports whether the plan edits anything.
func (t *TaskPlan) Changed() bool {
	return t.Skipped == "" && (t.NewCreate != t.OldCreate ||
		len(t.AddFwd) > 0 || len(t.DropFwd) > 0 ||
		len(t.DropRel) > 0 || len(t.AddRel) > 0)
}

// Plan is the whole-program edit plan.
type Plan struct {
	Prog  *isa.Program
	Tasks []*TaskPlan
}

// Changed reports whether any task has edits.
func (p *Plan) Changed() bool {
	for _, t := range p.Tasks {
		if t.Changed() {
			return true
		}
	}
	return false
}

// DroppedSends counts the ring sends the plan eliminates per task
// execution: one per dropped create-mask bit (the figure of merit; see
// core.Result.RingSends).
func (p *Plan) DroppedSends() int {
	n := 0
	for _, t := range p.Tasks {
		n += t.Drops.Count()
	}
	return n
}

// String renders the plan as a per-task table.
func (p *Plan) String() string {
	out := ""
	for _, t := range p.Tasks {
		if t.Skipped != "" {
			out += fmt.Sprintf("task %-10s skipped: %s\n", t.TD.Name, t.Skipped)
			continue
		}
		if !t.Changed() {
			out += fmt.Sprintf("task %-10s unchanged create=%s\n", t.TD.Name, t.OldCreate)
			continue
		}
		out += fmt.Sprintf("task %-10s create %s -> %s", t.TD.Name, t.OldCreate, t.NewCreate)
		if !t.Drops.Empty() {
			out += fmt.Sprintf(" (drop %s)", t.Drops)
		}
		if len(t.AddFwd) > 0 || len(t.DropFwd) > 0 {
			out += fmt.Sprintf(" fwd +%d/-%d", len(t.AddFwd), len(t.DropFwd))
		}
		if len(t.AddRel) > 0 || len(t.DropRel) > 0 {
			out += fmt.Sprintf(" rel +%d/-%d", len(t.AddRel), len(t.DropRel))
		}
		out += "\n"
	}
	return out
}

// ownership records how many tasks reach a block at depth 0 and whether
// any task reaches it through a call edge. A block is editable for a
// task only when that task owns it exclusively at depth 0: edits in
// shared blocks or pulled-in callee bodies would change every task that
// executes them.
type ownership struct {
	depth0 map[*cfg.Block]int
	callee map[*cfg.Block]bool
}

func (o *ownership) editable(r *cfg.TaskRegion, b *cfg.Block) bool {
	return r.Depth0[b] && !o.callee[b] && o.depth0[b] == 1
}

// Analyze computes the edit plan for every task of the program. The
// program is not modified.
func Analyze(p *isa.Program, opts Options) *Plan {
	g := cfg.Build(p)
	g.Analyze()

	plan := &Plan{Prog: p}
	own := &ownership{depth0: map[*cfg.Block]int{}, callee: map[*cfg.Block]bool{}}
	regions := make([]*cfg.TaskRegion, 0, len(p.Tasks))
	for _, td := range p.TaskList() {
		r := g.TaskRegion(td)
		regions = append(regions, r)
		for _, b := range r.Blocks {
			if r.Depth0[b] {
				own.depth0[b]++
			}
			if r.Callee[b] {
				own.callee[b] = true
			}
		}
	}
	for _, r := range regions {
		plan.Tasks = append(plan.Tasks, planTask(r, own, opts))
	}
	return plan
}

// planTask plans the edits of one task region.
func planTask(r *cfg.TaskRegion, own *ownership, opts Options) *TaskPlan {
	td := r.TD
	t := &TaskPlan{
		TD:        td,
		OldCreate: td.Create,
		NewCreate: td.Create,
		DropRel:   map[uint32]isa.Reg{},
		AddRel:    map[uint32]isa.RegMask{},
	}
	if len(r.Problems) > 0 {
		t.Skipped = "region has structural problems (see mslint)"
		return t
	}
	if r.UnknownExit {
		t.Skipped = "stop-tagged indirect jump makes the exit set unknowable"
		return t
	}
	if td.Create.Empty() {
		return t
	}
	g := r.Graph()

	// frozen: registers sent somewhere the task does not exclusively
	// own. Their send structure cannot be edited, so they keep their
	// create-mask bit and gain no new sends.
	var frozen isa.RegMask
	for _, b := range r.Blocks {
		if own.editable(r, b) {
			continue
		}
		for a := b.Start; a < b.End; a += isa.InstrSize {
			in := g.Prog.InstrAt(a)
			if in.Fwd {
				frozen = frozen.Set(in.Dest())
			}
			if in.Op == isa.OpRelease {
				frozen = frozen.Set(in.Rs)
			}
		}
	}

	// Minimal sound mask: what the task owes its successors (Sends). MS001
	// makes it a lower bound; anything above it is pass-through (MS017)
	// or dead (MS002) weight. Frozen registers keep their bit: removing
	// it would orphan a send we cannot edit.
	create, last := r.Sends()
	t.NewCreate = td.Create.Intersect(create).Union(td.Create.Intersect(frozen))
	t.Drops = t.OldCreate.Minus(t.NewCreate)

	// Sends of dropped registers satisfy no reservation any more; strip
	// them (all live in editable blocks — frozen regs were kept above).
	for _, b := range r.Blocks {
		if !own.editable(r, b) {
			continue
		}
		for a := b.Start; a < b.End; a += isa.InstrSize {
			in := g.Prog.InstrAt(a)
			if in.Fwd && t.Drops.Has(in.Dest()) {
				t.DropFwd = append(t.DropFwd, a)
			}
			if in.Op == isa.OpRelease && t.Drops.Has(in.Rs) {
				t.DropRel[a] = in.Rs
			}
		}
	}

	// Forward bits at last updates, the earliest sound send point of each
	// kept register, unless coverIn says it was already sent on every
	// path.
	gen := r.SendGen(t.NewCreate)
	coverIn, _ := r.CoverIn(t.NewCreate, gen)
	addAt := map[uint32]bool{}
	for _, b := range r.Blocks {
		if !own.editable(r, b) {
			continue
		}
		sent := coverIn[b]
		n := b.NumInstrs()
		for i := 0; i < n; i++ {
			a := b.Start + uint32(i)*isa.InstrSize
			in := g.Prog.InstrAt(a)
			if in.Op == isa.OpRelease {
				if t.NewCreate.Has(in.Rs) {
					sent = sent.Set(in.Rs)
				}
				continue
			}
			d := in.Dest()
			if d == isa.RegZero || !t.NewCreate.Has(d) {
				continue
			}
			if in.Fwd {
				sent = sent.Set(d)
				continue
			}
			if last[a] && !sent.Has(d) && !frozen.Has(d) {
				t.AddFwd = append(t.AddFwd, a)
				addAt[a] = true
				sent = sent.Set(d)
			}
		}
	}

	// Prune pass: the new forward bits can make a hand send downstream
	// provably dead (sent on every path before it — the ring carries
	// each register once, so the send never transmits; MS018). Removing
	// a dead send never uncovers a path, so one pass suffices.
	gen = planSendGen(r, t, addAt)
	coverIn, _ = r.CoverIn(t.NewCreate, gen)
	for _, b := range r.Blocks {
		if !own.editable(r, b) {
			continue
		}
		sent := coverIn[b]
		n := b.NumInstrs()
		for i := 0; i < n; i++ {
			a := b.Start + uint32(i)*isa.InstrSize
			in := g.Prog.InstrAt(a)
			switch {
			case in.Op == isa.OpRelease && t.NewCreate.Has(in.Rs):
				if _, dropped := t.DropRel[a]; dropped {
					continue
				}
				if sent.Has(in.Rs) {
					t.DropRel[a] = in.Rs
				} else {
					sent = sent.Set(in.Rs)
				}
			case (in.Fwd || addAt[a]) && t.NewCreate.Has(in.Dest()):
				if sent.Has(in.Dest()) && !addAt[a] && in.Fwd {
					t.DropFwd = append(t.DropFwd, a)
				} else {
					sent = sent.Set(in.Dest())
				}
			}
		}
	}

	if opts.InsertReleases {
		planReleases(r, t, own, addAt)
	}
	return t
}

// planSendGen recomputes per-block send sets under the plan's edits so
// far: existing sends minus drops, plus the planned forward bits.
func planSendGen(r *cfg.TaskRegion, t *TaskPlan, addAt map[uint32]bool) map[*cfg.Block]isa.RegMask {
	g := r.Graph()
	dropFwd := map[uint32]bool{}
	for _, a := range t.DropFwd {
		dropFwd[a] = true
	}
	gen := map[*cfg.Block]isa.RegMask{}
	for _, b := range r.Blocks {
		var m isa.RegMask
		for a := b.Start; a < b.End; a += isa.InstrSize {
			in := g.Prog.InstrAt(a)
			if (in.Fwd && !dropFwd[a]) || addAt[a] {
				m = m.Set(in.Dest())
			}
			if in.Op == isa.OpRelease {
				if _, dropped := t.DropRel[a]; !dropped {
					m = m.Set(in.Rs)
				}
			}
		}
		gen[b] = m.Intersect(t.NewCreate).Union(t.AddRel[b.Start].Intersect(t.NewCreate))
	}
	return gen
}

// planReleases inserts releases at the head of exit blocks whose exits a
// create-mask register reaches without having been sent (the flush-only
// paths of MS003). The head of an exit block is sound exactly when no
// path at or after it can still write the register (mwIn); registers the
// block itself finally writes were already covered by a forward bit.
// Recomputing cover after each insertion keeps later exits from planning
// sends the earlier ones already guarantee.
func planReleases(r *cfg.TaskRegion, t *TaskPlan, own *ownership, addAt map[uint32]bool) {
	g := r.Graph()
	mwIn := r.MayWriteIn()
	seen := map[*cfg.Block]bool{}
	for _, e := range r.Exits {
		b := g.BlockOf(e.Addr)
		if b == nil || seen[b] {
			continue
		}
		seen[b] = true
		if !own.editable(r, b) {
			continue
		}
		gen := planSendGen(r, t, addAt)
		_, coverOut := r.CoverIn(t.NewCreate, gen)
		need := t.NewCreate.Minus(coverOut[b]).Minus(mwIn[b])
		if need.Empty() {
			continue
		}
		t.AddRel[b.Start] = t.AddRel[b.Start].Union(need)
	}
}
