package mslint

import (
	"sort"

	"multiscalar/internal/cfg"
	"multiscalar/internal/isa"
)

func (l *linter) run() {
	p := l.prog
	if len(p.Text) == 0 || len(p.Tasks) == 0 {
		return
	}
	l.g = cfg.Build(p)
	l.g.Analyze()

	if p.TaskAt(p.Entry) == nil {
		l.diag(SevError, CodeEntryNotTask, "", isa.RegZero, p.Entry,
			"program entry 0x%x has no task descriptor; the sequencer cannot dispatch the first task", p.Entry)
	}

	var regions []*cfg.TaskRegion
	for _, td := range p.TaskList() {
		l.checkDescriptor(td)
		r := l.walkTask(td)
		regions = append(regions, r)
		l.checkExits(r)
		l.checkCreate(r)
		l.checkCoverage(r)
		l.checkForwardBits(r)
		l.checkFCC(r)
	}
	l.checkOverlap(regions)
}

// checkDescriptor verifies the static shape of one descriptor: target
// count within the hardware limit, every target resolvable to a task.
func (l *linter) checkDescriptor(td *isa.TaskDescriptor) {
	if len(td.Targets) > isa.MaxTaskTargets {
		l.diag(SevError, CodeTooManyTargets, td.Name, isa.RegZero, td.Entry,
			"%d successor targets exceed the descriptor limit of %d", len(td.Targets), isa.MaxTaskTargets)
	}
	for _, t := range td.Targets {
		if t == isa.TargetReturn {
			continue
		}
		if l.prog.Tasks[t] == nil {
			l.diag(SevError, CodeBadTaskRef, td.Name, isa.RegZero, td.Entry,
				"declared target 0x%x has no task descriptor", t)
		}
	}
}

// checkExits verifies that every statically discovered exit leads to a
// declared target, that every declared target is reached by some exit,
// and that call exits carry consistent pushra/call metadata.
func (l *linter) checkExits(r *cfg.TaskRegion) {
	td := r.TD
	covered := map[uint32]bool{}
	sawCall := false
	for _, e := range r.Exits {
		if td.HasTarget(e.Target) {
			covered[e.Target] = true
		} else {
			tname := "<return>"
			if e.Target != isa.TargetReturn {
				tname = l.taskNameAt(e.Target)
			}
			l.diag(SevError, CodeUndeclaredExit, td.Name, isa.RegZero, e.Addr,
				"task exits to %s (0x%x), which is not a declared target", tname, e.Target)
		}
		if e.Kind == cfg.ExitCall {
			sawCall = true
			switch {
			case td.PushRA == 0:
				l.diag(SevWarning, CodeCallPushRA, td.Name, isa.RegZero, e.Addr,
					"call exit without pushra=: the return address stack cannot predict the continuation 0x%x", e.Cont)
			case td.PushRA != e.Cont:
				l.diag(SevWarning, CodeCallPushRA, td.Name, isa.RegZero, e.Addr,
					"pushra 0x%x disagrees with the call continuation 0x%x", td.PushRA, e.Cont)
			case td.CallTarget != e.Target:
				l.diag(SevWarning, CodeCallPushRA, td.Name, isa.RegZero, e.Addr,
					"call= 0x%x disagrees with the callee 0x%x", td.CallTarget, e.Target)
			}
		}
	}
	if td.PushRA != 0 && !sawCall && !r.UnknownExit {
		l.diag(SevWarning, CodeCallPushRA, td.Name, isa.RegZero, td.Entry,
			"pushra= set but no call exit is reachable")
	}
	if !r.UnknownExit {
		for _, t := range td.Targets {
			if covered[t] {
				continue
			}
			tname := "<return>"
			if t != isa.TargetReturn {
				tname = l.taskNameAt(t)
			}
			l.diag(SevWarning, CodeUnreachableTarget, td.Name, isa.RegZero, td.Entry,
				"declared target %s (0x%x) is reached by no exit", tname, t)
		}
	}
}

func (l *linter) taskNameAt(addr uint32) string {
	if t := l.prog.Tasks[addr]; t != nil {
		return t.Name
	}
	return "<no task>"
}

// checkCreate checks the create mask against what the task owes its
// successors (cfg.TaskRegion.Sends). A register owed but not in the mask
// is an error: the successor would consume a stale pass-through value.
// A register in the mask but not owed is a warning, since it serializes
// successors for nothing: it is dead at every successor (MS002), or live
// but never written by the task (MS017).
func (l *linter) checkCreate(r *cfg.TaskRegion) {
	td := r.TD
	create, _ := r.Sends()
	create.Minus(td.Create).ForEach(func(reg isa.Reg) {
		l.diag(SevError, CodeCreateMissing, td.Name, reg, l.firstDefOf(r, reg),
			"task may write %s, which is live into a successor, but %s is not in the create mask", reg, reg)
	})
	extra, liveOut := td.Create.Minus(create), r.LiveOut()
	extra.Minus(liveOut).ForEach(func(reg isa.Reg) {
		l.diag(SevWarning, CodeCreateDead, td.Name, reg, td.Entry,
			"create-mask register %s is dead at every declared successor", reg)
	})
	extra.Intersect(liveOut).ForEach(func(reg isa.Reg) {
		l.diag(SevWarning, CodeOverBroadCreate, td.Name, reg, td.Entry,
			"create-mask register %s is never written by the task: successors wait to receive a value the task only passes through", reg)
	})
}

// firstDefOf returns the address of the lowest-addressed write of reg in
// the region (for diagnostic anchoring), or the task entry.
func (l *linter) firstDefOf(r *cfg.TaskRegion, reg isa.Reg) uint32 {
	blocks := append([]*cfg.Block(nil), r.Blocks...)
	sort.Slice(blocks, func(i, j int) bool { return blocks[i].Start < blocks[j].Start })
	for _, b := range blocks {
		for a := b.Start; a < b.End; a += isa.InstrSize {
			if cfg.TaskDefs(l.prog.InstrAt(a)).Has(reg) {
				return a
			}
		}
	}
	return r.TD.Entry
}

// checkCoverage runs the must-cover analysis: on every path from the
// task entry to each exit, each create-mask register should be forwarded
// or released; registers relying on the completion flush are flagged.
func (l *linter) checkCoverage(r *cfg.TaskRegion) {
	create := r.TD.Create
	if create.Empty() || len(r.Exits) == 0 {
		return
	}
	gen := r.SendGen(create)
	_, coverOut := r.CoverIn(create, gen)
	var reported isa.RegMask
	for _, e := range r.Exits {
		b := l.g.BlockOf(e.Addr)
		if b == nil {
			continue
		}
		miss := create.Minus(coverOut[b]).Minus(reported)
		miss.ForEach(func(reg isa.Reg) {
			reported = reported.Set(reg)
			l.diag(SevWarning, CodeFlushOnly, r.TD.Name, reg, e.Addr,
				"create-mask register %s is neither forwarded nor released on a path to this exit; successors wait for the completion flush", reg)
		})
	}
}

// checkForwardBits verifies send placement: a forward bit (or a release)
// must not precede a possible later write of the same register within the
// task (the ring would transmit a stale value); forwards/releases outside
// the create mask satisfy no successor's reservation; a send of a
// register already sent on every path never transmits (each create-mask
// register rides the ring exactly once per task); and a release reached
// only after unrelated work delays a value that was already final.
func (l *linter) checkForwardBits(r *cfg.TaskRegion) {
	create := r.TD.Create
	gen := r.SendGen(create)
	coverIn, _ := r.CoverIn(create, gen)
	for _, b := range r.Blocks {
		later := r.LaterWrites(b)
		sent := coverIn[b] // must-sent before instruction i
		n := b.NumInstrs()
		for i := 0; i < n; i++ {
			a := b.Start + uint32(i)*isa.InstrSize
			in := l.prog.InstrAt(a)
			if in.Fwd {
				d := in.Dest()
				switch {
				case d == isa.RegZero:
					l.diag(SevWarning, CodeForeignForward, r.TD.Name, isa.RegZero, a,
						"forward bit on an instruction with no destination register")
				case !create.Has(d):
					l.diag(SevWarning, CodeForeignForward, r.TD.Name, d, a,
						"forward bit on %s, which is not in the create mask", d)
				case later[i].Has(d):
					l.diag(SevError, CodeStaleForward, r.TD.Name, d, a,
						"forward bit on a non-last update of %s: a later write within the task would make the forwarded value stale", d)
				case sent.Has(d):
					l.diag(SevWarning, CodeDeadForward, r.TD.Name, d, a,
						"forward bit on %s after %s has already been forwarded or released on every path here; the send never happens", d, d)
				}
				if create.Has(d) {
					sent = sent.Set(d)
				}
			}
			if in.Op == isa.OpRelease {
				switch {
				case !create.Has(in.Rs):
					l.diag(SevWarning, CodeForeignForward, r.TD.Name, in.Rs, a,
						"release of %s, which is not in the create mask", in.Rs)
				case later[i].Has(in.Rs):
					l.diag(SevError, CodeStaleForward, r.TD.Name, in.Rs, a,
						"release of %s before a possible later write within the task: the released value would be stale", in.Rs)
				case sent.Has(in.Rs):
					l.diag(SevWarning, CodeDeadForward, r.TD.Name, in.Rs, a,
						"release of %s after %s has already been forwarded or released on every path here; the send never happens", in.Rs, in.Rs)
				case l.lateRelease(b, i, in.Rs):
					l.diag(SevWarning, CodeLateForward, r.TD.Name, in.Rs, a,
						"release of %s executes after unrelated instructions although the value was already final; successors stall longer than necessary", in.Rs)
				}
				if create.Has(in.Rs) {
					sent = sent.Set(in.Rs)
				}
			}
		}
	}
}

// lateRelease reports whether the release at index i of b sits in the
// same block as the final write of reg with a non-release instruction
// strictly between them: the value was final earlier in this block, so
// the release could have run there. A release with no in-block write
// before it marks a path that never updates the register; its earliest
// sound point depends on the path, so it is not flagged. Release-only
// gaps (including the expansion of a multi-register release) are on
// time.
func (l *linter) lateRelease(b *cfg.Block, i int, reg isa.Reg) bool {
	gap := false
	for j := i - 1; j >= 0; j-- {
		in := l.prog.InstrAt(b.Start + uint32(j)*isa.InstrSize)
		if cfg.TaskDefs(in).Has(reg) {
			return gap
		}
		if in.Op != isa.OpRelease {
			gap = true
		}
	}
	return false
}

// checkFCC flags floating-point condition-flag liveness across the task
// entry: a bc1t/bc1f reachable from the entry before any FP compare
// consumes a flag set in a previous task, and the flag is task-local.
func (l *linter) checkFCC(r *cfg.TaskRegion) {
	entry := l.g.ByAddr[r.TD.Entry]
	if entry == nil {
		return
	}
	seen := map[*cfg.Block]bool{entry: true}
	stack := []*cfg.Block{entry}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		blocked := false
		for a := b.Start; a < b.End; a += isa.InstrSize {
			in := l.prog.InstrAt(a)
			if in.ReadsFCC() {
				l.diag(SevWarning, CodeFCCBoundary, r.TD.Name, isa.RegZero, a,
					"%s executes before any FP compare in this task; the FP condition flag does not cross task boundaries", in.Op)
				return
			}
			if in.Op.SetsFCC() {
				blocked = true
				break
			}
		}
		if blocked {
			continue
		}
		for _, s := range r.Edges[b] {
			if !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
}

// checkOverlap flags instructions reachable from two task headers
// without being their own task. Shared suppressed-callee bodies are the
// legitimate exception (they execute within each calling task); blocks
// reached only through call edges are therefore excluded.
func (l *linter) checkOverlap(regions []*cfg.TaskRegion) {
	owners := map[*cfg.Block][]string{}
	for _, r := range regions {
		for _, b := range r.Blocks {
			if !r.Depth0[b] {
				continue
			}
			if l.prog.Tasks[b.Start] != nil {
				continue // its own task (or a flagged entry crossing)
			}
			owners[b] = append(owners[b], r.TD.Name)
		}
	}
	var shared []*cfg.Block
	for b, names := range owners {
		if len(names) > 1 {
			shared = append(shared, b)
		}
	}
	sort.Slice(shared, func(i, j int) bool { return shared[i].Start < shared[j].Start })
	for _, b := range shared {
		names := owners[b]
		sort.Strings(names)
		l.diag(SevWarning, CodeTaskOverlap, "", isa.RegZero, b.Start,
			"instructions at 0x%x are reachable from task headers %v without being their own task", b.Start, names)
	}
}
