package cfg

import (
	"multiscalar/internal/isa"
)

// Flow passes over a TaskRegion. These answer the two questions the
// annotation contract of Section 2.2 turns on:
//
//   - may-write-later: can a register still be written at or after a
//     point within the task? Its complement identifies last updates —
//     the only places a forward bit is sound (the linter's stale-forward
//     check) and where the partitioner places them (Sends).
//   - path-cover: on every path from the task entry to a point, has a
//     register already been forwarded or released? The complement at an
//     exit identifies flush-only paths (the linter's coverage check).
//
// Both are fixpoints over the region's internal edge set (exit edges
// contribute nothing: the task has ended).

// mayWriteIn computes, for each region block b, the registers that may
// be written at or after the start of b within the task:
// mwIn[b] = defs(b) ∪ (∪ succ mwIn) over internal edges. The fixpoint
// runs once per region; later calls return the same map.
func (r *TaskRegion) mayWriteIn() map[*Block]isa.RegMask {
	if r.mwIn != nil {
		return r.mwIn
	}
	mwIn := map[*Block]isa.RegMask{}
	for changed := true; changed; {
		changed = false
		for i := len(r.Blocks) - 1; i >= 0; i-- {
			b := r.Blocks[i]
			var tail isa.RegMask
			for _, s := range r.Edges[b] {
				tail = tail.Union(mwIn[s])
			}
			in := r.BlockDefs(b).Union(tail)
			if in != mwIn[b] {
				mwIn[b] = in
				changed = true
			}
		}
	}
	r.mwIn = mwIn
	return mwIn
}

// LaterWrites returns, per instruction of b, the registers that may be
// written strictly after that instruction within the task (the stale-
// forward predicate: a forward bit or release of a register in its
// later-set would transmit a stale value).
func (r *TaskRegion) LaterWrites(b *Block) []isa.RegMask {
	mwIn := r.mayWriteIn()
	n := b.NumInstrs()
	later := make([]isa.RegMask, n)
	var tail isa.RegMask
	for _, s := range r.Edges[b] {
		tail = tail.Union(mwIn[s])
	}
	for i := n - 1; i >= 0; i-- {
		later[i] = tail
		tail = tail.Union(TaskDefs(r.g.Prog.InstrAt(b.Start + uint32(i)*isa.InstrSize)))
	}
	return later
}

// SendGen returns, per region block, the create-mask registers the block
// explicitly sends on the ring: forward bits on destinations and release
// operands, intersected with create.
func (r *TaskRegion) SendGen(create isa.RegMask) map[*Block]isa.RegMask {
	gen := map[*Block]isa.RegMask{}
	for _, b := range r.Blocks {
		var m isa.RegMask
		for a := b.Start; a < b.End; a += isa.InstrSize {
			in := r.g.Prog.InstrAt(a)
			if in.Fwd {
				m = m.Set(in.Dest())
			}
			if in.Op == isa.OpRelease {
				m = m.Set(in.Rs)
			}
		}
		gen[b] = m.Intersect(create)
	}
	return gen
}

// CoverIn computes the must-cover sets: coverIn[b] holds the create-mask
// registers that have been forwarded or released on EVERY path from the
// task entry to the start of b; coverOut[b] additionally includes b's
// own sends. A descending fixpoint from the optimistic top (create), so
// loops converge to the meet over all paths.
func (r *TaskRegion) CoverIn(create isa.RegMask, gen map[*Block]isa.RegMask) (coverIn, coverOut map[*Block]isa.RegMask) {
	preds := r.Preds()
	entry := r.g.ByAddr[r.TD.Entry]
	coverIn = map[*Block]isa.RegMask{}
	coverOut = map[*Block]isa.RegMask{}
	for _, b := range r.Blocks {
		coverOut[b] = create // optimistic top for the descending fixpoint
	}
	for changed := true; changed; {
		changed = false
		for _, b := range r.Blocks {
			var in isa.RegMask
			if b != entry && len(preds[b]) > 0 {
				in = create
				for _, p := range preds[b] {
					in = in.Intersect(coverOut[p])
				}
			}
			coverIn[b] = in
			o := in.Union(gen[b])
			if o != coverOut[b] {
				coverOut[b] = o
				changed = true
			}
		}
	}
	return coverIn, coverOut
}

// LiveOut returns the registers live into any declared successor of the
// region's task: the union of the successor tasks' entry live-in sets,
// with the graph's one return rule (returnLive) standing in for return
// successors. A task that ends in a call has one successor more than its
// targets name: the continuation it pushes (PushRA) runs after the
// callee's tasks, which pass through whatever they do not write, so what
// the caller holds across the call is live out of it too.
func (r *TaskRegion) LiveOut() isa.RegMask {
	var m isa.RegMask
	if b := r.g.ByAddr[r.TD.PushRA]; b != nil {
		m = b.LiveIn
	}
	for _, t := range r.TD.Targets {
		if t == isa.TargetReturn {
			m = m.Union(r.g.returnLive())
			continue
		}
		if b := r.g.ByAddr[t]; b != nil {
			m = m.Union(b.LiveIn)
		}
	}
	return m
}

// Sends is what the task owes its successors under Section 2.2, stated
// once for the partitioner that writes it and the linter that checks a
// binary against it:
//
//   - create: the registers the task may write that are live out of it
//     (defs ∩ LiveOut). What an indirect callee writes is unknown, so a
//     task holding one creates everything live out of it.
//   - last: the addresses of the last updates of create registers, the
//     writes after which no path within the task writes the register
//     again, outside pulled-in callee bodies (a body shared by several
//     tasks cannot carry one task's sends). A task holding an indirect
//     call has none: no write in it is provably the last.
func (r *TaskRegion) Sends() (create isa.RegMask, last map[uint32]bool) {
	for _, p := range r.Problems {
		if p.Kind == ProbIndirect {
			return AllRegs.Intersect(r.LiveOut()), nil
		}
	}
	create = r.Defs().Intersect(r.LiveOut())
	last = map[uint32]bool{}
	for _, b := range r.Blocks {
		if r.Callee[b] {
			continue
		}
		for i, later := range r.LaterWrites(b) {
			a := b.Start + uint32(i)*isa.InstrSize
			if d := r.g.Prog.InstrAt(a).Dest(); create.Has(d) && !later.Has(d) {
				last[a] = true
			}
		}
	}
	return create, last
}
