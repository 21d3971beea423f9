package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"multiscalar/internal/asm"
	"multiscalar/internal/interp"
	"multiscalar/internal/taskpart"
)

// progGen builds random but well-structured programs: straight-line
// blocks, counted loops (possibly nested), if/else diamonds, and leaf
// function calls, over a register pool and a bounds-masked word buffer.
// Every program terminates and prints a checksum. The automatic task
// partitioner then annotates it, and the differential test requires
// identical behaviour from the interpreter, the scalar machine, and
// every multiscalar configuration.
type progGen struct {
	r     *rand.Rand
	b     strings.Builder
	label int
	funcs []string // leaf function labels
}

// Register pools: values the generator computes with, and reserved loop
// counters (never touched by generated bodies).
var genRegs = []string{"$s0", "$s1", "$s2", "$s3", "$t0", "$t1", "$t2", "$t3"}
var loopCounters = []string{"$s6", "$s7", "$t8"}

func (g *progGen) newLabel(prefix string) string {
	g.label++
	return fmt.Sprintf("%s%d", prefix, g.label)
}

func (g *progGen) reg() string { return genRegs[g.r.Intn(len(genRegs))] }

func (g *progGen) emit(format string, args ...interface{}) {
	fmt.Fprintf(&g.b, "\t"+format+"\n", args...)
}

// op emits one random computation instruction.
func (g *progGen) op() {
	d, a, b := g.reg(), g.reg(), g.reg()
	switch g.r.Intn(12) {
	case 0:
		g.emit("add %s, %s, %s", d, a, b)
	case 1:
		g.emit("sub %s, %s, %s", d, a, b)
	case 2:
		g.emit("xor %s, %s, %s", d, a, b)
	case 3:
		g.emit("and %s, %s, %s", d, a, b)
	case 4:
		g.emit("or %s, %s, %s", d, a, b)
	case 5:
		g.emit("addi %s, %s, %d", d, a, g.r.Intn(2001)-1000)
	case 6:
		g.emit("sll %s, %s, %d", d, a, g.r.Intn(8))
	case 7:
		g.emit("sra %s, %s, %d", d, a, g.r.Intn(8))
	case 8:
		g.emit("mul %s, %s, %s", d, a, b)
	case 9:
		// Memory access with a bounds-masked, word-aligned index.
		g.emit("andi $at, %s, 0xfc", a)
		if g.r.Intn(2) == 0 {
			g.emit("lw %s, buf($at)", d)
		} else {
			g.emit("sw %s, buf($at)", b)
		}
	case 10:
		// Shared global scalar: loads/stores of a fixed address create
		// memory-order recurrences across iteration tasks (the squash
		// traffic §3.1.1 discusses).
		g.emit("lw %s, buf+%d", d, 128+4*g.r.Intn(4))
	case 11:
		g.emit("sw %s, buf+%d", b, 128+4*g.r.Intn(4))
	}
}

func (g *progGen) block(n int) {
	for i := 0; i < n; i++ {
		g.op()
	}
}

// loop emits a counted loop at nesting depth `depth`.
func (g *progGen) loop(depth int) {
	ctr := loopCounters[depth]
	top := g.newLabel("L")
	g.emit("li %s, %d", ctr, 2+g.r.Intn(10))
	fmt.Fprintf(&g.b, "%s:\n", top)
	g.block(2 + g.r.Intn(5))
	if depth == 0 && g.r.Intn(3) == 0 {
		g.loop(depth + 1)
	}
	if len(g.funcs) > 0 && g.r.Intn(3) == 0 {
		g.call()
	}
	g.emit("addi %s, %s, -1", ctr, ctr)
	g.emit("bnez %s, %s", ctr, top)
}

// diamond emits an if/else over a data-dependent condition.
func (g *progGen) diamond() {
	els, end := g.newLabel("E"), g.newLabel("J")
	g.emit("slt $at, %s, %s", g.reg(), g.reg())
	g.emit("beqz $at, %s", els)
	g.block(1 + g.r.Intn(3))
	g.emit("j %s", end)
	fmt.Fprintf(&g.b, "%s:\n", els)
	g.block(1 + g.r.Intn(3))
	fmt.Fprintf(&g.b, "%s:\n", end)
}

func (g *progGen) call() {
	f := g.funcs[g.r.Intn(len(g.funcs))]
	g.emit("move $a0, %s", g.reg())
	g.emit("jal %s", f)
	g.emit("add %s, %s, $v0", g.reg(), g.reg())
}

// generate returns complete assembly source.
func (g *progGen) generate() string {
	nfuncs := g.r.Intn(3)
	for i := 0; i < nfuncs; i++ {
		g.funcs = append(g.funcs, fmt.Sprintf("fn%d", i))
	}

	g.b.WriteString("\t.data\nbuf:\t.space 256\n\t.text\nmain:\n")
	for i, r := range genRegs {
		g.emit("li %s, %d", r, (i+1)*37+g.r.Intn(100))
	}
	segments := 2 + g.r.Intn(4)
	for i := 0; i < segments; i++ {
		switch g.r.Intn(4) {
		case 0:
			g.block(3 + g.r.Intn(6))
		case 1, 2:
			g.loop(0)
		case 3:
			g.diamond()
		}
	}
	// Checksum: fold the register pool and a few buffer words.
	g.emit("li $v1, 0")
	for _, r := range genRegs {
		g.emit("xor $v1, $v1, %s", r)
	}
	for i := 0; i < 4; i++ {
		g.emit("lw $at, buf+%d", i*64)
		g.emit("add $v1, $v1, $at")
	}
	g.emit("move $a0, $v1")
	g.emit("li $v0, 1")
	g.emit("syscall")
	g.emit("li $v0, 10")
	g.emit("li $a0, 0")
	g.emit("syscall")

	for _, f := range g.funcs {
		fmt.Fprintf(&g.b, "%s:\n", f)
		switch g.r.Intn(3) {
		case 0:
			g.emit("add $v0, $a0, $a0")
		case 1:
			g.emit("sll $v0, $a0, 2")
			g.emit("sub $v0, $v0, $a0")
		case 2:
			g.emit("andi $v0, $a0, 0xff")
			g.emit("addi $v0, $v0, 13")
		}
		g.emit("jr $ra")
	}
	return g.b.String()
}

// TestRandomProgramsEquivalence is the repository's master differential
// test: 500 random programs, auto-partitioned, must behave identically on
// the interpreter, the scalar machine, and multiscalar machines across
// unit counts, widths and issue orders — output, exit code, and committed
// instruction count all equal, and no task forwarding a stale value.
func TestRandomProgramsEquivalence(t *testing.T) {
	trials := 500
	if testing.Short() {
		trials = 10
	}
	for trial := 0; trial < trials; trial++ {
		g := &progGen{r: rand.New(rand.NewSource(int64(1000 + trial)))}
		src := g.generate()

		prog, err := asm.Assemble(src, asm.ModeMultiscalar)
		if err != nil {
			t.Fatalf("trial %d: assemble: %v\n%s", trial, err, src)
		}
		suppress := g.r.Intn(2) == 0
		if _, err := taskpart.Run(prog, taskpart.Options{SuppressAllCalls: suppress}); err != nil {
			t.Fatalf("trial %d: partition: %v\n%s", trial, err, src)
		}

		env := interp.NewSysEnv()
		om := interp.NewMachine(prog, env)
		if err := om.Run(10_000_000); err != nil {
			t.Fatalf("trial %d: oracle: %v\n%s", trial, err, src)
		}
		wantOut := env.Out.String()

		// The scalar baseline runs the plain build of the same source: a
		// binary without descriptors, one implicit task.
		plain, err := asm.Assemble(src, asm.ModeScalar)
		if err != nil {
			t.Fatal(err)
		}
		sres, err := newScalarMachine(t, plain, ScalarConfig(1+g.r.Intn(2), g.r.Intn(2) == 0)).Run()
		if err != nil {
			t.Fatalf("trial %d: scalar: %v\n%s", trial, err, src)
		}
		if sres.Out != wantOut {
			t.Fatalf("trial %d: scalar out %q, want %q\n%s", trial, sres.Out, wantOut, src)
		}

		for _, units := range []int{2, 4, 8} {
			width := 1 + g.r.Intn(2)
			ooo := g.r.Intn(2) == 0
			cfg := DefaultConfig(units, width, ooo)
			cfg.MaxCycles = 50_000_000
			menv := interp.NewSysEnv()
			m, err := NewMultiscalar(prog, menv, cfg)
			if err != nil {
				t.Fatalf("trial %d units=%d: %v", trial, units, err)
			}
			res, err := m.Run()
			if err != nil {
				t.Fatalf("trial %d units=%d width=%d ooo=%v: %v\n%s",
					trial, units, width, ooo, err, src)
			}
			if res.Out != wantOut {
				t.Fatalf("trial %d units=%d: out %q, want %q\n%s",
					trial, units, res.Out, wantOut, src)
			}
			if res.Committed != om.ICount {
				t.Fatalf("trial %d units=%d: committed %d, oracle %d\n%s",
					trial, units, res.Committed, om.ICount, src)
			}
		}
	}
}
