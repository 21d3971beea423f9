package cfg

import (
	"multiscalar/internal/isa"
)

// A task's region is reconstructed exactly the way a processing unit
// executes it: start at the entry, follow control flow, end at any
// satisfied stop bit. A call without a stop bit pulls the callee body
// into the task (the paper's suppressed functions); a call with a stop
// bit ends the task at the callee's entry. The walk, and what the task
// owes its successors over it (Sends), is shared by the partitioner
// (internal/taskpart), which writes annotations from it, and the
// annotation linter (internal/mslint), which checks a binary against it.
// Structural oddities found along the way are recorded as Problems for
// the caller to interpret (the linter turns them into diagnostics).

// ExitKind distinguishes how a stop-tagged instruction leaves the task.
type ExitKind int

const (
	ExitJump   ExitKind = iota // branch/jump/fallthrough to a static address
	ExitCall                   // jal: the callee entry starts the next task
	ExitReturn                 // jr: successor resolved by the return stack
)

// Exit is one statically discovered task exit.
type Exit struct {
	Addr   uint32 // address of the stop-tagged instruction
	Target uint32 // successor task entry (isa.TargetReturn for ExitReturn)
	Cont   uint32 // for ExitCall: the return continuation (Addr+4)
	Kind   ExitKind
}

// ProblemKind classifies a structural oddity found while walking a task
// region.
type ProblemKind int

const (
	// ProbBadEntry: the task entry is not the start of a basic block; the
	// region is empty.
	ProbBadEntry ProblemKind = iota
	// ProbFallsOffText: control falls past the end of the text segment
	// without a stop bit.
	ProbFallsOffText
	// ProbEntersTask: control crosses into another task's entry (Target)
	// without a stop bit.
	ProbEntersTask
	// ProbStopInCallee: a stop bit inside a called function body would end
	// the task mid-call on behalf of every caller.
	ProbStopInCallee
	// ProbCalleeIsTask: a call without a stop bit targets an address
	// (Target) that is also a task entry; the body executes both inside
	// this task and as its own task.
	ProbCalleeIsTask
	// ProbIndirect: an indirect call inside the region defeats static exit
	// and effect analysis.
	ProbIndirect
	// ProbReturnNoStop: a return is reachable from the task entry without
	// a stop bit.
	ProbReturnNoStop
)

// Problem is one structural finding of the region walk.
type Problem struct {
	Kind   ProblemKind
	Addr   uint32 // offending instruction (or the task entry)
	Target uint32 // referenced address, when the kind has one
	Op     isa.Op // offending opcode, when the kind has one
}

// TaskRegion is one task's reconstructed extent plus its intra-task
// edges, exits, and structural problems.
type TaskRegion struct {
	TD     *isa.TaskDescriptor
	Blocks []*Block            // discovery order (fixpoints iterate this)
	Depth0 map[*Block]bool     // reached from the entry without a call edge
	Callee map[*Block]bool     // reached (possibly only) through call edges
	Edges  map[*Block][]*Block // intra-task control flow
	Exits  []Exit
	// UnknownExit: a stop-tagged jalr makes the exit set unknowable.
	UnknownExit bool
	// Halts: addresses of statically recognized exit syscalls.
	Halts    []uint32
	Problems []Problem

	g    *Graph
	mwIn map[*Block]isa.RegMask // mayWriteIn's fixpoint, once computed
}

func (r *TaskRegion) problem(k ProblemKind, addr, target uint32, op isa.Op) {
	r.Problems = append(r.Problems, Problem{Kind: k, Addr: addr, Target: target, Op: op})
}

// haltAt returns the address of the first exit syscall in the block, or
// 0. An exit syscall is a `syscall` whose nearest preceding $v0 write in
// the same block is a constant 10 (the li expansion) — the only way a
// workload terminates. Unknown $v0 values are conservatively not halts.
func (g *Graph) haltAt(b *Block) uint32 {
	v0 := int32(-1) // last known constant in $v0; -1 = unknown
	for a := b.Start; a < b.End; a += isa.InstrSize {
		in := g.Prog.InstrAt(a)
		switch {
		case in.Op == isa.OpSyscall:
			if v0 == 10 {
				return a
			}
		case in.Dest() == isa.RegV0:
			if (in.Op == isa.OpOri || in.Op == isa.OpAddi) && in.Rs == isa.RegZero {
				v0 = in.Imm
			} else {
				v0 = -1
			}
		}
	}
	return 0
}

// TaskRegion reconstructs the region of one task following the rules the
// processing units follow at runtime.
func (g *Graph) TaskRegion(td *isa.TaskDescriptor) *TaskRegion {
	r := &TaskRegion{
		TD:     td,
		Depth0: map[*Block]bool{},
		Callee: map[*Block]bool{},
		Edges:  map[*Block][]*Block{},
		g:      g,
	}
	start := g.ByAddr[td.Entry]
	if start == nil {
		r.problem(ProbBadEntry, td.Entry, td.Entry, 0)
		return r
	}

	type state struct {
		b       *Block
		viaCall bool
	}
	seen := map[state]bool{}
	var stack []state
	push := func(b *Block, viaCall bool) {
		if b == nil {
			return
		}
		s := state{b, viaCall}
		if seen[s] {
			return
		}
		seen[s] = true
		stack = append(stack, s)
	}
	addEdge := func(from, to *Block) {
		for _, e := range r.Edges[from] {
			if e == to {
				return
			}
		}
		r.Edges[from] = append(r.Edges[from], to)
	}
	// internal traverses a non-exit edge, checking that it does not bleed
	// into another task's entry.
	internal := func(from *Block, to uint32, viaCall bool, instrAddr uint32) {
		t := g.ByAddr[to]
		if t == nil {
			r.problem(ProbFallsOffText, instrAddr, to, 0)
			return
		}
		if g.Prog.Tasks[to] != nil && (viaCall || to != td.Entry) {
			r.problem(ProbEntersTask, instrAddr, to, 0)
			return
		}
		addEdge(from, t)
		push(t, viaCall)
	}

	var calleeReturns []*Block // jr blocks inside pulled-in callees
	var callConts []*Block     // fall-through blocks of suppressed calls

	push(start, false)
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		b := s.b
		firstVisit := !r.Depth0[b] && !r.Callee[b]
		if s.viaCall {
			r.Callee[b] = true
		} else {
			r.Depth0[b] = true
		}
		if firstVisit {
			r.Blocks = append(r.Blocks, b)
		}

		if h := g.haltAt(b); h != 0 {
			r.Halts = append(r.Halts, h)
			continue // program exit: no successors
		}

		lastAddr := b.End - isa.InstrSize
		last := g.Prog.InstrAt(lastAddr)

		// A stop bit inside a called function body ends the task mid-call
		// for every caller; record it and do not treat it as this task's
		// exit (the depth-0 visit, if any, owns the exit).
		if s.viaCall && last.Stop != isa.StopNone {
			r.problem(ProbStopInCallee, lastAddr, 0, last.Op)
		}
		calleeStop := s.viaCall && last.Stop != isa.StopNone

		addExit := func(target uint32, kind ExitKind) {
			if s.viaCall {
				return
			}
			e := Exit{Addr: lastAddr, Target: target, Kind: kind}
			if kind == ExitCall {
				e.Cont = b.End
			}
			r.Exits = append(r.Exits, e)
		}

		switch {
		case last.Op.IsBranch():
			takenExit := last.Stop == isa.StopAlways || last.Stop == isa.StopTaken
			fallExit := last.Stop == isa.StopAlways || last.Stop == isa.StopNotTaken
			if takenExit && !calleeStop {
				addExit(last.Target, ExitJump)
			} else if !takenExit {
				internal(b, last.Target, s.viaCall, lastAddr)
			}
			if fallExit && !calleeStop {
				addExit(b.End, ExitJump)
			} else if !fallExit {
				internal(b, b.End, s.viaCall, lastAddr)
			}
		case last.Op == isa.OpJ:
			switch last.Stop {
			case isa.StopNone, isa.StopNotTaken: // an unconditional jump is always taken
				internal(b, last.Target, s.viaCall, lastAddr)
			default:
				if !calleeStop {
					addExit(last.Target, ExitJump)
				}
			}
		case last.Op == isa.OpJal:
			if last.Stop != isa.StopNone {
				// The call ends the task: the callee entry is the successor
				// task; the continuation belongs to a later task.
				if !calleeStop {
					addExit(last.Target, ExitCall)
				}
			} else {
				// Suppressed call: pull the callee body in, resume at the
				// fall-through.
				if g.Prog.Tasks[last.Target] != nil {
					r.problem(ProbCalleeIsTask, lastAddr, last.Target, last.Op)
				}
				if callee := g.ByAddr[last.Target]; callee != nil {
					addEdge(b, callee)
					push(callee, true)
				}
				if ft := g.ByAddr[b.End]; ft != nil {
					callConts = append(callConts, ft)
				}
				internal(b, b.End, s.viaCall, lastAddr)
			}
		case last.Op == isa.OpJalr:
			r.problem(ProbIndirect, lastAddr, 0, last.Op)
			if last.Stop != isa.StopNone {
				r.UnknownExit = true
			} else {
				internal(b, b.End, s.viaCall, lastAddr)
			}
		case last.Op == isa.OpJr:
			switch {
			case s.viaCall:
				// Return within a pulled-in callee: execution resumes at the
				// call continuation; the approximate return edges are added
				// after the walk.
				calleeReturns = append(calleeReturns, b)
			case last.Stop == isa.StopAlways:
				addExit(isa.TargetReturn, ExitReturn)
			default:
				r.problem(ProbReturnNoStop, lastAddr, 0, last.Op)
			}
		default:
			if last.Stop != isa.StopNone {
				if !calleeStop {
					addExit(b.End, ExitJump)
				}
			} else {
				internal(b, b.End, s.viaCall, lastAddr)
			}
		}
	}

	// Approximate return edges: any callee return may resume at any
	// suppressed-call continuation of this task. Over-approximate (and
	// thus sound for the may/must analyses that consume the edge set).
	for _, ret := range calleeReturns {
		for _, cont := range callConts {
			addEdge(ret, cont)
		}
	}
	return r
}

// TaskDefs returns the registers one instruction may define within a
// task region. Callee bodies of suppressed calls are walked directly, so
// a jal contributes only $ra; jalr contributes only its link register
// (its full effect is unanalyzable and already recorded as ProbIndirect).
func TaskDefs(in *isa.Instr) isa.RegMask {
	var m isa.RegMask
	switch in.Op {
	case isa.OpJal, isa.OpJalr:
		return m.Set(in.Rd)
	default:
		return m.Set(in.Dest())
	}
}

// BlockDefs unions TaskDefs over the block.
func (r *TaskRegion) BlockDefs(b *Block) isa.RegMask {
	var m isa.RegMask
	for a := b.Start; a < b.End; a += isa.InstrSize {
		m = m.Union(TaskDefs(r.g.Prog.InstrAt(a)))
	}
	return m
}

// Defs unions TaskDefs over the whole region.
func (r *TaskRegion) Defs() isa.RegMask {
	var m isa.RegMask
	for _, b := range r.Blocks {
		m = m.Union(r.BlockDefs(b))
	}
	return m
}

// Preds inverts the region's edge map.
func (r *TaskRegion) Preds() map[*Block][]*Block {
	out := map[*Block][]*Block{}
	for from, tos := range r.Edges {
		for _, to := range tos {
			out[to] = append(out[to], from)
		}
	}
	return out
}
