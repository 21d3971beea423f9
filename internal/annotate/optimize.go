package annotate

import (
	"multiscalar/internal/isa"
)

// Apply performs the plan's binary-level edits on prog in place: create
// masks shrink to the planned minimum, planned forward bits are set,
// dead or orphaned forward bits are cleared, and dropped releases decay
// to nops (an instruction cannot be deleted from a laid-out binary, and
// a release's only architectural effect is its ring send — which the
// shrunk mask already removed). Planned release insertions need new
// instructions and are skipped; only RewriteSource encodes them.
//
// prog must be the program the plan was computed over (or a clone with
// identical text and descriptors).
func (p *Plan) Apply(prog *isa.Program) {
	for _, t := range p.Tasks {
		if t.Skipped != "" || !t.Changed() {
			continue
		}
		if td := prog.TaskAt(t.TD.Entry); td != nil {
			td.Create = t.NewCreate
		}
		for _, a := range t.AddFwd {
			if in := prog.InstrAt(a); in != nil {
				in.Fwd = true
			}
		}
		for _, a := range t.DropFwd {
			if in := prog.InstrAt(a); in != nil {
				in.Fwd = false
			}
		}
		for a := range t.DropRel {
			in := prog.InstrAt(a)
			if in == nil || in.Op != isa.OpRelease {
				continue
			}
			// Preserve the annotation bits: a stop bit on a release still
			// ends the task there.
			stop := in.Stop
			*in = isa.Instr{Op: isa.OpNop, Stop: stop}
		}
	}
}

// Optimize analyzes prog and returns an optimized clone beside the plan.
// The input program is not modified. The clone's instructions are the
// input's, so the interpreter cannot tell them apart; a wrong annotation
// shows only on the timing machine, where the tests hold the clone to
// the oracle.
func Optimize(prog *isa.Program) (*isa.Program, *Plan) {
	plan := Analyze(prog, Options{})
	out := prog.Clone()
	plan.Apply(out)
	return out, plan
}
