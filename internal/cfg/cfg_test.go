package cfg_test

import (
	"testing"

	"multiscalar/internal/asm"
	"multiscalar/internal/cfg"
	"multiscalar/internal/isa"
)

func buildGraph(t *testing.T, src string) *cfg.Graph {
	t.Helper()
	p, err := asm.Assemble(src, asm.ModeScalar)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	g := cfg.Build(p)
	g.Analyze()
	return g
}

const simpleLoop = `
main:
	li $t0, 10
	li $t1, 0
loop:
	add $t1, $t1, $t0
	addi $t0, $t0, -1
	bnez $t0, loop
	move $a0, $t1
	li $v0, 10
	syscall
`

func TestBuildBlocks(t *testing.T) {
	g := buildGraph(t, simpleLoop)
	// Expect 3 blocks: [main..loop), [loop..bnez], [move..syscall]
	if len(g.Blocks) != 3 {
		t.Fatalf("blocks = %d: %v", len(g.Blocks), g.Blocks)
	}
	b0, b1, b2 := g.Blocks[0], g.Blocks[1], g.Blocks[2]
	if b0.NumInstrs() != 2 || b1.NumInstrs() != 3 || b2.NumInstrs() != 3 {
		t.Errorf("sizes = %d,%d,%d", b0.NumInstrs(), b1.NumInstrs(), b2.NumInstrs())
	}
	if len(b0.Succs) != 1 || b0.Succs[0] != b1 {
		t.Errorf("b0 succs = %v", b0.Succs)
	}
	if len(b1.Succs) != 2 {
		t.Fatalf("b1 succs = %v", b1.Succs)
	}
	hasSelf, hasNext := false, false
	for _, s := range b1.Succs {
		if s == b1 {
			hasSelf = true
		}
		if s == b2 {
			hasNext = true
		}
	}
	if !hasSelf || !hasNext {
		t.Errorf("b1 succs = %v", b1.Succs)
	}
	if len(b2.Succs) != 0 {
		t.Errorf("b2 succs = %v", b2.Succs)
	}
	if g.Entry != b0 {
		t.Errorf("entry = %v", g.Entry)
	}
}

func TestBlockOf(t *testing.T) {
	g := buildGraph(t, simpleLoop)
	b := g.BlockOf(isa.TextBase + 12) // second instr of loop block
	if b == nil || b != g.Blocks[1] {
		t.Fatalf("BlockOf = %v", b)
	}
	if g.BlockOf(0x9000_0000) != nil {
		t.Error("out-of-range BlockOf should be nil")
	}
}

func TestDominators(t *testing.T) {
	g := buildGraph(t, simpleLoop)
	b0, b1, b2 := g.Blocks[0], g.Blocks[1], g.Blocks[2]
	if !g.Dominates(b0, b1) || !g.Dominates(b0, b2) || !g.Dominates(b1, b2) {
		t.Error("dominance wrong")
	}
	if g.Dominates(b2, b1) || g.Dominates(b1, b0) {
		t.Error("reverse dominance wrong")
	}
	if !g.Dominates(b1, b1) {
		t.Error("dominance should be reflexive")
	}
}

func TestNaturalLoop(t *testing.T) {
	g := buildGraph(t, simpleLoop)
	if len(g.Loops) != 1 {
		t.Fatalf("loops = %d", len(g.Loops))
	}
	l := g.Loops[0]
	if l.Header != g.Blocks[1] {
		t.Errorf("header = %v", l.Header)
	}
	if len(l.Blocks) != 1 || !l.Blocks[g.Blocks[1]] {
		t.Errorf("loop blocks = %v", l.Blocks)
	}
	if l.Depth != 1 {
		t.Errorf("depth = %d", l.Depth)
	}
	if g.Blocks[1].Loop != l || g.Blocks[0].Loop != nil {
		t.Error("block->loop mapping wrong")
	}
}

const nestedLoops = `
main:
	li $s0, 3
outer:
	li $s1, 4
inner:
	addi $s1, $s1, -1
	bnez $s1, inner
	addi $s0, $s0, -1
	bnez $s0, outer
	li $v0, 10
	syscall
`

func TestNestedLoops(t *testing.T) {
	g := buildGraph(t, nestedLoops)
	if len(g.Loops) != 2 {
		t.Fatalf("loops = %d", len(g.Loops))
	}
	var innerL, outerL *cfg.Loop
	for _, l := range g.Loops {
		if len(l.Blocks) == 1 {
			innerL = l
		} else {
			outerL = l
		}
	}
	if innerL == nil || outerL == nil {
		t.Fatalf("could not identify loops")
	}
	if innerL.Parent != outerL {
		t.Errorf("inner parent = %v", innerL.Parent)
	}
	if innerL.Depth != 2 || outerL.Depth != 1 {
		t.Errorf("depths = %d,%d", innerL.Depth, outerL.Depth)
	}
	// Inner block's innermost loop is the inner loop.
	innerHeader := innerL.Header
	if innerHeader.Loop != innerL {
		t.Error("inner header mapped to wrong loop")
	}
}

func TestLiveness(t *testing.T) {
	g := buildGraph(t, simpleLoop)
	b1 := g.Blocks[1] // loop body: reads t0,t1; writes t0,t1
	t0, t1 := isa.RegT0, isa.RegT0+1
	if !b1.Use.Has(t0) || !b1.Use.Has(t1) {
		t.Errorf("b1 use = %v", b1.Use)
	}
	if !b1.Def.Has(t0) || !b1.Def.Has(t1) {
		t.Errorf("b1 def = %v", b1.Def)
	}
	// t1 is live out of the loop (used by move in b2); t0 is live out too
	// (loop back edge reads it).
	if !b1.LiveOut.Has(t1) || !b1.LiveOut.Has(t0) {
		t.Errorf("b1 liveout = %v", b1.LiveOut)
	}
	// t0/t1 are dead on entry to main (defined before use).
	b0 := g.Blocks[0]
	if b0.LiveIn.Has(t0) || b0.LiveIn.Has(t1) {
		t.Errorf("b0 livein = %v", b0.LiveIn)
	}
}

func TestLiveAtInstructionGranularity(t *testing.T) {
	g := buildGraph(t, simpleLoop)
	// At the bnez (third instr of block 1), t1 has been written; live set
	// before bnez must contain t0 (branch source) and t1 (live out).
	bnezAddr := g.Blocks[1].End - isa.InstrSize
	live := g.LiveAt(bnezAddr)
	if !live.Has(isa.RegT0) || !live.Has(isa.RegT0+1) {
		t.Errorf("live at bnez = %v", live)
	}
	// Before the block's first instruction, same as LiveIn.
	if got := g.LiveAt(g.Blocks[1].Start); got != g.Blocks[1].LiveIn {
		t.Errorf("LiveAt(start) = %v, want %v", got, g.Blocks[1].LiveIn)
	}
}

const callProgram = `
main:
	li  $a0, 5
	jal double
	move $s0, $v0
	li  $v0, 10
	syscall
double:
	add $v0, $a0, $a0
	jr  $ra
`

func TestCallSummaries(t *testing.T) {
	g := buildGraph(t, callProgram)
	p := g.Prog
	dblAddr, _ := p.Symbol("double")
	fs := g.Funcs[dblAddr]
	if fs == nil {
		t.Fatal("no summary for double")
	}
	if !fs.Defs.Has(isa.RegV0) {
		t.Errorf("double defs = %v", fs.Defs)
	}
	if !fs.Uses.Has(isa.RegA0) {
		t.Errorf("double uses = %v", fs.Uses)
	}
	// The call block's Def must include the callee's defs and $ra.
	var callBlock *cfg.Block
	for _, b := range g.Blocks {
		if b.CallTarget == dblAddr {
			callBlock = b
		}
	}
	if callBlock == nil {
		t.Fatal("no call block")
	}
	if !callBlock.Def.Has(isa.RegV0) || !callBlock.Def.Has(isa.RegRA) {
		t.Errorf("call block def = %v", callBlock.Def)
	}
}

func TestRecursiveCallSummaryTerminates(t *testing.T) {
	g := buildGraph(t, `
main:
	li $a0, 3
	jal fact
	li $v0, 10
	syscall
fact:
	blez $a0, base
	addi $sp, $sp, -8
	sw   $ra, 0($sp)
	sw   $a0, 4($sp)
	addi $a0, $a0, -1
	jal  fact
	lw   $a0, 4($sp)
	lw   $ra, 0($sp)
	addi $sp, $sp, 8
	mul  $v0, $v0, $a0
	jr   $ra
base:
	li $v0, 1
	jr $ra
`)
	p := g.Prog
	fAddr, _ := p.Symbol("fact")
	fs := g.Funcs[fAddr]
	if fs == nil {
		t.Fatal("no summary")
	}
	for _, r := range []isa.Reg{isa.RegV0, isa.RegA0, isa.RegSP, isa.RegRA} {
		if !fs.Defs.Has(r) {
			t.Errorf("fact defs missing %v: %v", r, fs.Defs)
		}
	}
}

func TestReturnBlockMarked(t *testing.T) {
	g := buildGraph(t, callProgram)
	found := false
	for _, b := range g.Blocks {
		if b.Returns {
			found = true
			if len(b.Succs) != 0 {
				t.Errorf("return block has succs %v", b.Succs)
			}
			if !b.LiveOut.Has(isa.RegV0) {
				t.Errorf("return liveout = %v", b.LiveOut)
			}
		}
	}
	if !found {
		t.Error("no return block")
	}
}

// TestReturnLiveness: what is live after a return is what the call
// continuations read — $t5 here, which no calling convention keeps, and
// not the callee-saved registers, which nobody reads — and the ABI set
// once an indirect call could return anywhere.
func TestReturnLiveness(t *testing.T) {
	const src = `
main:
	li   $a0, 5
	jal  fn
	add  $a0, $v0, $t5
	li   $v0, 10
	syscall
fn:
	add  $v0, $a0, $a0
	li   $t5, 1
	jr   $ra
`
	retLive := func(g *cfg.Graph) isa.RegMask {
		for _, b := range g.Blocks {
			if b.Returns {
				return b.LiveOut
			}
		}
		t.Fatal("no return block")
		return 0
	}
	// The exit syscall reads $a1-$a3 as well.
	want := isa.MaskOf(isa.RegV0, isa.RegT0+5, isa.RegA0+1, isa.RegA0+2, isa.RegA0+3)
	if got := retLive(buildGraph(t, src)); got != want {
		t.Errorf("live after return = %v, want %v", got, want)
	}
	if got := retLive(buildGraph(t, src+"\tjalr $t0\n")); got != cfg.LiveAtReturn {
		t.Errorf("live after return with an indirect call = %v, want the ABI set %v", got, cfg.LiveAtReturn)
	}
}

func TestIndirectCallConservative(t *testing.T) {
	g := buildGraph(t, `
main:
	la   $t0, fn
	jalr $t0
	li   $v0, 10
	syscall
fn:
	jr $ra
`)
	var callBlock *cfg.Block
	for _, b := range g.Blocks {
		if b.IndirectCall {
			callBlock = b
		}
	}
	if callBlock == nil {
		t.Fatal("no indirect call block")
	}
	if callBlock.Def != cfg.AllRegs {
		t.Errorf("indirect call def = %v", callBlock.Def)
	}
}

func TestTaskEntriesAreLeaders(t *testing.T) {
	src := `
main:
	li $t0, 1
	li $t1, 2
mid:
	add $t0, $t0, $t1
	li $v0, 10
	syscall
	.task mid targets=mid
`
	res, err := asm.AssembleOpts(src, asm.Options{Mode: asm.ModeMultiscalar, NoLint: true})
	if err != nil {
		t.Fatal(err)
	}
	p := res.Prog
	g := cfg.Build(p)
	midAddr, _ := p.Symbol("mid")
	if g.ByAddr[midAddr] == nil {
		t.Error("task entry did not start a block")
	}
}

func TestUnreachableCodeHandled(t *testing.T) {
	g := buildGraph(t, `
main:
	li $v0, 10
	syscall
	j main
dead:
	add $t0, $t0, $t0
	jr $ra
`)
	// The dead block exists but has no IDom and doesn't break analysis.
	deadAddr, _ := g.Prog.Symbol("dead")
	// dead is a jump target? no — it's unreachable, but still a block
	// because it follows a control instruction.
	if b := g.BlockOf(deadAddr); b == nil {
		t.Fatal("dead block missing")
	}
	if len(g.Loops) != 0 {
		// j main creates a cycle main->main? main block ends in syscall
		// (not control), so blocks chain; the j back-edge makes a loop —
		// that is fine; just ensure analysis terminated.
		t.Logf("loops = %d (analysis terminated)", len(g.Loops))
	}
}
