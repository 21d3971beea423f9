package cfg

import "multiscalar/internal/isa"

// Register liveness and function effect summaries.
//
// Calls are summarized: a jal contributes its callee's transitive
// defs/uses (computed by a fixpoint over the call graph); an indirect call
// (jalr) conservatively defines and uses every register. What is live
// after a return (jr) is decided once, by returnLive, for every reader:
// global liveness, TaskRegion.LiveOut and so Sends. A register *not* live
// at a task exit can then safely be dropped from the create mask (Section
// 2.2's dead register analysis).

// LiveAtReturn is the calling convention's view of what a caller observes
// after a return: results, stack/global/frame pointers, and all
// callee-saved registers (integer $s0-$s7 and conventionally preserved FP
// regs $f20-$f31). It is only the fallback of returnLive, for a program
// whose return continuations cannot all be seen.
var LiveAtReturn = func() isa.RegMask {
	m := isa.MaskOf(isa.RegV0, isa.RegV1, isa.RegSP, isa.RegGP, isa.RegFP, isa.RegRA)
	for r := isa.RegS0; r <= isa.RegS7; r++ {
		m = m.Set(r)
	}
	for i := 20; i < 32; i++ {
		m = m.Set(isa.F(i))
	}
	return m
}()

// AllRegs is every register except $zero.
var AllRegs = func() isa.RegMask {
	var m isa.RegMask
	for r := isa.Reg(1); r < isa.NumRegs; r++ {
		m = m.Set(r)
	}
	return m
}()

// Analyze runs all dataflow analyses: dominators, loops, call summaries,
// block def/use, and global liveness. Call it once after Build.
func (g *Graph) Analyze() {
	g.computeDominators()
	g.findLoops()
	g.computeFuncSummaries()
	g.computeDefUse()
	g.computeLiveness()
}

// instrDefUse returns the registers one instruction defines and uses,
// summarizing calls through g.Funcs.
func (g *Graph) instrDefUse(in *isa.Instr) (def, use isa.RegMask) {
	switch in.Op {
	case isa.OpJal:
		def = def.Set(in.Rd)
		if fs := g.Funcs[in.Target]; fs != nil {
			def = def.Union(fs.Defs)
			// The jal itself writes $ra before the callee can read it, so
			// the callee's $ra use never reaches back past the call site.
			use = use.Union(fs.Uses.Clear(isa.RegRA))
		}
	case isa.OpJalr:
		def = AllRegs
		use = AllRegs
	default:
		if d := in.Dest(); d != isa.RegZero {
			def = def.Set(d)
		}
		for _, s := range in.Sources() {
			use = use.Set(s)
		}
	}
	return def, use
}

// computeFuncSummaries discovers functions (program entry plus every
// direct call target) and fixpoints their transitive register effects
// over the call graph.
func (g *Graph) computeFuncSummaries() {
	g.Funcs = make(map[uint32]*FuncSummary)
	entries := map[uint32]bool{g.Prog.Entry: true}
	for _, b := range g.Blocks {
		if b.CallTarget != 0 {
			entries[b.CallTarget] = true
		}
	}
	for e := range entries {
		g.Funcs[e] = &FuncSummary{Entry: e}
	}

	// funcBlocks: blocks reachable from the entry following intra-
	// procedural edges only (call edges already go to the fall-through).
	funcBlocks := func(entry uint32) []*Block {
		start := g.ByAddr[entry]
		if start == nil {
			return nil
		}
		seen := map[*Block]bool{}
		stack := []*Block{start}
		var out []*Block
		for len(stack) > 0 {
			b := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if seen[b] {
				continue
			}
			seen[b] = true
			out = append(out, b)
			for _, s := range b.Succs {
				stack = append(stack, s)
			}
		}
		return out
	}

	bodies := make(map[uint32][]*Block, len(entries))
	for e := range entries {
		bodies[e] = funcBlocks(e)
	}

	// Phase 1: Defs — every register any instruction in the body (or a
	// transitive callee) may write. Fixpointed first so that phase 2 sees
	// final callee kill sets; bootstrapping both together lets a recursive
	// call site miss its own kills on the first pass and latch the phantom
	// use permanently (the stale register re-enters Uses through the call
	// site on every later iteration).
	for changed := true; changed; {
		changed = false
		for e, fs := range g.Funcs {
			var defs isa.RegMask
			for _, b := range bodies[e] {
				for a := b.Start; a < b.End; a += isa.InstrSize {
					d, _ := g.instrDefUse(g.instrOf(a))
					defs = defs.Union(d)
				}
			}
			if defs != fs.Defs {
				fs.Defs = defs
				changed = true
			}
		}
	}

	// Phase 2: Uses — upward-exposed reads only, by backward liveness over
	// the body with nothing live out of a return. A register the callee
	// writes before reading observes the callee's own value, not the
	// caller's, so it must not leak into the call-site use set.
	for changed := true; changed; {
		changed = false
		for e, fs := range g.Funcs {
			body := bodies[e]
			inBody := make(map[*Block]bool, len(body))
			for _, b := range body {
				inBody[b] = true
			}
			liveIn := make(map[*Block]isa.RegMask, len(body))
			for again := true; again; {
				again = false
				for i := len(body) - 1; i >= 0; i-- {
					b := body[i]
					var live isa.RegMask
					for _, s := range b.Succs {
						if inBody[s] {
							live = live.Union(liveIn[s])
						}
					}
					for a := b.End - isa.InstrSize; a >= b.Start; a -= isa.InstrSize {
						d, u := g.instrDefUse(g.instrOf(a))
						live = live.Minus(d).Union(u)
						if a == b.Start {
							break // avoid uint32 underflow
						}
					}
					if live != liveIn[b] {
						liveIn[b] = live
						again = true
					}
				}
			}
			if uses := liveIn[g.ByAddr[e]]; uses != fs.Uses {
				fs.Uses = uses
				changed = true
			}
		}
	}
}

// computeDefUse fills Block.Def (all registers written) and Block.Use
// (registers read before written within the block).
func (g *Graph) computeDefUse() {
	for _, b := range g.Blocks {
		var def, use isa.RegMask
		for a := b.Start; a < b.End; a += isa.InstrSize {
			d, u := g.instrDefUse(g.instrOf(a))
			use = use.Union(u.Minus(def))
			def = def.Union(d)
		}
		b.Def, b.Use = def, use
	}
}

// returnLive is the one rule for what is live after a return: every
// return lands on the continuation of some direct call, so it is the union
// of the live-outs of the direct-call blocks. An indirect call may push a
// return address no jal shows, and a program with no direct call has no
// continuation to read; both fall back to the ABI set. The rule refers to
// liveness itself, so computeLiveness iterates it to its fixpoint.
func (g *Graph) returnLive() isa.RegMask {
	var m isa.RegMask
	calls := false
	for _, b := range g.Blocks {
		if b.IndirectCall {
			return LiveAtReturn
		}
		if b.CallTarget != 0 {
			m = m.Union(b.LiveOut)
			calls = true
		}
	}
	if !calls {
		return LiveAtReturn
	}
	return m
}

// computeLiveness runs backward liveness to a fixpoint, return blocks
// included (returnLive, re-read on every pass).
func (g *Graph) computeLiveness() {
	for changed := true; changed; {
		changed = false
		ret := g.returnLive()
		for i := len(g.Blocks) - 1; i >= 0; i-- {
			b := g.Blocks[i]
			var out isa.RegMask
			if b.Returns {
				out = ret
			}
			for _, s := range b.Succs {
				out = out.Union(s.LiveIn)
			}
			in := b.Use.Union(out.Minus(b.Def))
			if out != b.LiveOut || in != b.LiveIn {
				b.LiveOut, b.LiveIn = out, in
				changed = true
			}
		}
	}
}
