// Package cfg builds and analyzes the control flow graph of an assembled
// program: basic blocks, dominators, natural loops, call summaries, and
// global register liveness. The task partitioner (internal/taskpart) uses
// these analyses to reproduce the compiler half of the paper's toolchain:
// choosing task boundaries and computing create masks trimmed by
// dead-register analysis (Section 2.2).
package cfg

import (
	"fmt"
	"sort"

	"multiscalar/internal/isa"
)

// Block is one basic block: a maximal straight-line run of instructions
// with a single entry at the top.
type Block struct {
	Index int    // position in Graph.Blocks (reverse-postorder-ish, by address)
	Start uint32 // address of first instruction
	End   uint32 // address just past the last instruction

	Succs []*Block
	Preds []*Block

	// CallTarget is the callee entry address when the block ends in a
	// direct call (jal); 0 otherwise. IndirectCall marks a jalr ending.
	CallTarget   uint32
	IndirectCall bool
	// Returns marks a block ending in jr (function return).
	Returns bool
	// Halts marks a block ending in a recognized exit syscall (see
	// ExitSyscalls): the program terminates, so the block has no
	// successors and nothing is live out of it.
	Halts bool

	// Dataflow facts filled in by Analyze.
	Def     isa.RegMask // registers written in the block (incl. call effects)
	Use     isa.RegMask // registers read before any write in the block
	LiveIn  isa.RegMask
	LiveOut isa.RegMask

	// Dominator tree parent (nil for entry / unreachable).
	IDom *Block
	// Loop header this block belongs to most immediately, nil if none.
	Loop *Loop
}

// NumInstrs returns the instruction count of the block.
func (b *Block) NumInstrs() int { return int((b.End - b.Start) / isa.InstrSize) }

func (b *Block) String() string {
	return fmt.Sprintf("B%d[0x%x,0x%x)", b.Index, b.Start, b.End)
}

// Loop is a natural loop discovered from a back edge.
type Loop struct {
	Header *Block
	Blocks map[*Block]bool
	Parent *Loop // enclosing loop, if nested
	Depth  int
}

// Graph is the control flow graph of a program.
type Graph struct {
	Prog   *isa.Program
	Blocks []*Block
	ByAddr map[uint32]*Block // block start -> block
	Entry  *Block
	Loops  []*Loop

	// Funcs maps each discovered function entry (program entry + every
	// direct call target) to its transitive register effect summary.
	Funcs map[uint32]*FuncSummary
}

// FuncSummary is the transitive register effect of calling a function.
type FuncSummary struct {
	Entry uint32
	Defs  isa.RegMask // registers the call may write (incl. callees)
	// Uses holds the upward-exposed reads: registers the call may read
	// before writing (incl. callees). Registers the function only reads
	// after writing observe its own values, not the caller's, and are
	// excluded.
	Uses isa.RegMask
}

// instrOf returns the instruction at addr.
func (g *Graph) instrOf(addr uint32) *isa.Instr { return g.Prog.InstrAt(addr) }

// ExitSyscalls returns the addresses of statically recognizable program
// terminations: each `syscall` whose nearest preceding $v0 write in the
// same straight-line run is a constant 10 (the exit code of the li
// expansion). Such a syscall never falls through, so treating it as a
// block terminator removes bogus edges into whatever code follows it in
// the text (typically the next function body), tightening liveness.
// Syscalls with unknown $v0 are conservatively not included.
func ExitSyscalls(p *isa.Program) map[uint32]bool {
	// Any address control can jump to invalidates linear constant
	// tracking: a branch could arrive there with a different $v0.
	joins := map[uint32]bool{}
	for i := range p.Text {
		in := &p.Text[i]
		if in.Op.HasTarget() {
			joins[in.Target] = true
		}
	}
	for entry := range p.Tasks {
		joins[entry] = true
	}
	out := map[uint32]bool{}
	v0 := int32(-1) // last known constant in $v0; -1 = unknown
	for i := range p.Text {
		addr := isa.TextBase + uint32(i)*isa.InstrSize
		if joins[addr] {
			v0 = -1
		}
		in := &p.Text[i]
		switch {
		case in.Op == isa.OpSyscall:
			if v0 == 10 {
				out[addr] = true
			}
			v0 = -1 // sbrk and future syscalls may write $v0
		case in.Op.IsControl():
			v0 = -1 // execution resumes at a target or fall-through of a split
		case in.Dest() == isa.RegV0:
			if (in.Op == isa.OpOri || in.Op == isa.OpAddi) && in.Rs == isa.RegZero {
				v0 = in.Imm
			} else {
				v0 = -1
			}
		}
	}
	return out
}

// BlockOf returns the block containing the given address.
func (g *Graph) BlockOf(addr uint32) *Block {
	i := sort.Search(len(g.Blocks), func(i int) bool { return g.Blocks[i].End > addr })
	if i < len(g.Blocks) && g.Blocks[i].Start <= addr {
		return g.Blocks[i]
	}
	return nil
}

// Build constructs the basic-block graph for a program.
func Build(p *isa.Program) *Graph {
	g := &Graph{Prog: p, ByAddr: make(map[uint32]*Block)}
	textEnd := p.TextEnd()
	halts := ExitSyscalls(p)

	// Pass 1: find leaders. A recognized exit syscall terminates its block
	// like a control instruction: whatever follows it in the text starts a
	// new block and receives no fall-through edge.
	leaders := map[uint32]bool{p.Entry: true, isa.TextBase: true}
	for i := range p.Text {
		in := &p.Text[i]
		addr := isa.TextBase + uint32(i)*isa.InstrSize
		if in.Op.IsControl() || halts[addr] {
			if in.Op.HasTarget() && in.Target >= isa.TextBase && in.Target < textEnd {
				leaders[in.Target] = true
			}
			if addr+isa.InstrSize < textEnd {
				leaders[addr+isa.InstrSize] = true
			}
		}
	}
	// Task entries are also leaders (tasks must start on block boundaries).
	for entry := range p.Tasks {
		leaders[entry] = true
	}

	starts := make([]uint32, 0, len(leaders))
	for a := range leaders {
		starts = append(starts, a)
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })

	// Pass 2: create blocks. Every instruction following a control
	// instruction is a leader, so a control instruction can only be the
	// last instruction before the next leader — blocks are exactly the
	// inter-leader ranges.
	for i, start := range starts {
		end := textEnd
		if i+1 < len(starts) {
			end = starts[i+1]
		}
		b := &Block{Index: len(g.Blocks), Start: start, End: end}
		g.Blocks = append(g.Blocks, b)
		g.ByAddr[start] = b
	}

	// Pass 3: edges.
	for _, b := range g.Blocks {
		last := g.instrOf(b.End - isa.InstrSize)
		addEdge := func(to uint32) {
			if t := g.ByAddr[to]; t != nil {
				b.Succs = append(b.Succs, t)
				t.Preds = append(t.Preds, b)
			}
		}
		if halts[b.End-isa.InstrSize] {
			b.Halts = true // program exit: no successors
			continue
		}
		switch {
		case last.Op.IsBranch():
			addEdge(last.Target)
			addEdge(b.End)
		case last.Op == isa.OpJ:
			addEdge(last.Target)
		case last.Op == isa.OpJal:
			b.CallTarget = last.Target
			addEdge(b.End) // call returns to the fall-through
		case last.Op == isa.OpJalr:
			b.IndirectCall = true
			addEdge(b.End)
		case last.Op == isa.OpJr:
			b.Returns = true // no static successor
		default:
			addEdge(b.End) // fall through
		}
	}
	g.Entry = g.ByAddr[p.Entry]
	return g
}
