package litmus

import (
	"fmt"
	"math/rand"
	"strings"
)

// The shape catalogue. Every shape arranges its racing accesses over
// two shared words X and Y (Params.Pad apart) plus per-task result
// slots, and ends in a terminal "obs" task that prints the
// observations — so the program's output is the final state the
// machine committed, directly comparable against the oracle's.
//
// filler is the depth of the dependent filler chain the shape inserts to
// skew timing between its racing accesses; tasks scales the shapes with
// a variable task chain or trip count (chain, loop, rand) and is 0 for
// the others.
type shape struct {
	name   string
	doc    string
	filler int
	tasks  int
	emit   func(g *emitter)
}

var shapes = []shape{
	{"mp", "message passing: data store then flag store vs. flag load then data load", 4, 0, emitMP},
	{"sb", "store buffering: each task stores its own word then loads the other's", 4, 0, emitSB},
	{"lb", "load buffering: each task loads the other's word then stores its own", 4, 0, emitLB},
	{"corr", "coherence read-read: two same-address loads must not see new-then-old", 8, 0, emitCoRR},
	{"corw", "coherence write-write: two stores vs. two loads, no intermediate reorder", 8, 0, emitCoWW},
	{"xviol", "cross-task violation: delayed predecessor store vs. eager speculative load", 12, 0, emitXViol},
	{"chain", "deep read-modify-write chain on one shared counter across n tasks", 2, 4, emitChain},
	{"loop", "looping task incrementing a shared counter, predictor-driven exit", 0, 6, emitLoop},
	{"relstore", "release-before-store: register released early while stores are pending", 8, 0, emitRelStore},
	{"fwdrace", "forward-bit race: early register forward lets the successor's load overtake a late store", 10, 0, emitFwdRace},
	{"rand", "seeded random task chain over an aliased address pool (stressor shape)", 0, 4, emitRand},
}

func shapeByName(name string) *shape {
	for i := range shapes {
		if shapes[i].name == name {
			return &shapes[i]
		}
	}
	return nil
}

// outcome renders printed values the way the obs task prints them:
// each integer followed by one space.
func outcome(vals ...int) string {
	var b strings.Builder
	for _, v := range vals {
		fmt.Fprintf(&b, "%d ", v)
	}
	return b.String()
}

// emitter accumulates one generated program: task bodies in emission
// order (fallthrough between consecutive tasks is meaningful), task
// descriptors, result slots, and the observation list the terminal
// task prints.
type emitter struct {
	p         Params
	sh        *shape
	body      strings.Builder
	decls     []string
	slots     int
	obs       []obsItem
	forbidden map[string]string
	rng       *rand.Rand
}

type obsItem struct {
	sym string // memory observation: symbol...
	off int    // ...plus byte offset
	reg string // or a register observation
}

func newEmitter(p Params, sh *shape) *emitter {
	return &emitter{
		p:         p,
		sh:        sh,
		forbidden: map[string]string{},
		rng:       rand.New(rand.NewSource(p.Seed)),
	}
}

// task opens a new task body and records its descriptor. Bodies are
// emitted in call order, so a task that falls through (loop exit)
// must be followed immediately by its fallthrough successor.
func (g *emitter) task(name, targets, create string) {
	d := "\t.task " + name
	if targets != "" {
		d += " targets=" + targets
	}
	if create != "" {
		d += " create=" + create
	}
	g.decls = append(g.decls, d)
	fmt.Fprintf(&g.body, "%s:\n", name)
}

func (g *emitter) label(name string) { fmt.Fprintf(&g.body, "%s:\n", name) }

func (g *emitter) ins(format string, a ...any) {
	fmt.Fprintf(&g.body, "\t"+format+"\n", a...)
}

// filler emits an n-deep dependent add chain on $t8 — pure delay, no
// shared state.
func (g *emitter) filler(n int) {
	if n <= 0 {
		return
	}
	g.ins("li $t8, 0")
	for i := 0; i < n; i++ {
		g.ins("addi $t8, $t8, 1")
	}
}

// name is the program's stable identity: shape plus the parameters
// that matter for it.
func (g *emitter) name() string {
	s := fmt.Sprintf("%s/pad%d/fill%d", g.sh.name, g.p.Pad, g.sh.filler)
	if g.sh.tasks > 0 {
		s += fmt.Sprintf("/n%d", g.sh.tasks)
	}
	if g.sh.name == "rand" {
		s += fmt.Sprintf("/seed%d", g.p.Seed)
	}
	return s
}

// slot allocates a result slot (its own ARB chunk: slots are 8 bytes
// apart) and returns its index.
func (g *emitter) slot() int {
	s := g.slots
	g.slots++
	return s
}

func (g *emitter) storeSlot(reg string, slot int) {
	g.ins("sw %s, %s", reg, slotRef(slot))
}

func slotRef(slot int) string {
	if slot == 0 {
		return "res"
	}
	return fmt.Sprintf("res+%d", 8*slot)
}

func (g *emitter) observeSlot(i int) { g.obs = append(g.obs, obsItem{sym: "res", off: 8 * i}) }
func (g *emitter) observeSym(sym string, off int) {
	g.obs = append(g.obs, obsItem{sym: sym, off: off})
}
func (g *emitter) observeReg(r string) { g.obs = append(g.obs, obsItem{reg: r}) }

// obsTask emits the terminal observer: it prints every recorded
// observation ("%d " each) and exits 0.
func (g *emitter) obsTask() {
	g.task("obs", "", "")
	for _, o := range g.obs {
		switch {
		case o.reg != "":
			g.ins("move $a0, %s", o.reg)
		case o.off != 0:
			g.ins("lw $a0, %s+%d", o.sym, o.off)
		default:
			g.ins("lw $a0, %s", o.sym)
		}
		g.ins("li $v0, 1")
		g.ins("syscall")
		g.ins("li $a0, 32")
		g.ins("li $v0, 11")
		g.ins("syscall")
	}
	g.ins("li $v0, 10")
	g.ins("li $a0, 0")
	g.ins("syscall")
}

func (g *emitter) forbid(out, why string) { g.forbidden[out] = why }

// finish assembles the full source: data layout (X, the pad gap, Y, a
// block-sized gap, then the 8-byte result slots and the stressor's
// address pool), the task bodies, and the descriptors.
func (g *emitter) finish() string {
	var b strings.Builder
	fmt.Fprintf(&b, "; litmus %s (generated)\n", g.name())
	b.WriteString("\t.data\n")
	b.WriteString("X:\t.space 4\n")
	if g.p.Pad > 4 {
		fmt.Fprintf(&b, "\t.space %d\n", g.p.Pad-4)
	}
	b.WriteString("Y:\t.space 4\n")
	// Keep the result slots a cache block away from X/Y and 8-aligned
	// so each slot is its own ARB chunk.
	after := g.p.Pad + 4
	resOff := (after + 64 + 7) &^ 7
	fmt.Fprintf(&b, "\t.space %d\n", resOff-after)
	slots := g.slots
	if slots == 0 {
		slots = 1
	}
	fmt.Fprintf(&b, "res:\t.space %d\n", 8*slots)
	b.WriteString("pool:\t.space 256\n")
	b.WriteString("\t.text\n")
	b.WriteString(g.body.String())
	b.WriteString(strings.Join(g.decls, "\n"))
	b.WriteString("\n")
	return b.String()
}

// --- Classic shapes -------------------------------------------------

func emitMP(g *emitter) {
	r0, r1 := g.slot(), g.slot()
	g.task("main", "t0", "")
	g.ins("j t0 !s")
	g.task("t0", "t1", "")
	g.filler(g.sh.filler)
	g.ins("li $t0, 1")
	g.ins("sw $t0, X") // data
	g.ins("sw $t0, Y") // flag
	g.ins("j t1 !s")
	g.task("t1", "obs", "")
	g.ins("lw $t1, Y")
	g.ins("lw $t2, X")
	g.storeSlot("$t1", r0)
	g.storeSlot("$t2", r1)
	g.ins("j obs !s")
	g.observeSlot(r0)
	g.observeSlot(r1)
	g.obsTask()
	g.forbid(outcome(1, 0), "message passing: flag observed before data (missed cross-task violation)")
}

func emitSB(g *emitter) {
	r0, r1 := g.slot(), g.slot()
	g.task("main", "t0", "")
	g.ins("j t0 !s")
	g.task("t0", "t1", "")
	g.ins("li $t0, 1")
	g.ins("sw $t0, X")
	g.filler(g.sh.filler)
	g.ins("lw $t1, Y")
	g.storeSlot("$t1", r0)
	g.ins("j t1 !s")
	g.task("t1", "obs", "")
	g.ins("li $t0, 1")
	g.ins("sw $t0, Y")
	g.ins("lw $t1, X")
	g.storeSlot("$t1", r1)
	g.ins("j obs !s")
	g.observeSlot(r0)
	g.observeSlot(r1)
	g.obsTask()
	g.forbid(outcome(0, 0), "store buffering: both loads missed the other task's store")
	g.forbid(outcome(1, 1), "store buffering: program-order-earlier load observed a later task's store")
}

func emitLB(g *emitter) {
	r0, r1 := g.slot(), g.slot()
	g.task("main", "t0", "")
	g.ins("j t0 !s")
	g.task("t0", "t1", "")
	g.ins("lw $t0, Y")
	g.storeSlot("$t0", r0)
	g.filler(g.sh.filler)
	g.ins("li $t1, 1")
	g.ins("sw $t1, X")
	g.ins("j t1 !s")
	g.task("t1", "obs", "")
	g.ins("lw $t0, X")
	g.storeSlot("$t0", r1)
	g.filler(g.sh.filler)
	g.ins("li $t1, 1")
	g.ins("sw $t1, Y")
	g.ins("j obs !s")
	g.observeSlot(r0)
	g.observeSlot(r1)
	g.obsTask()
	g.forbid(outcome(1, 1), "load buffering: causality cycle (each load saw the other's later store)")
	g.forbid(outcome(0, 0), "load buffering: successor load committed a stale value")
}

func emitCoRR(g *emitter) {
	r0, r1 := g.slot(), g.slot()
	g.task("main", "t0", "")
	g.ins("j t0 !s")
	g.task("t0", "t1", "")
	g.filler(g.sh.filler)
	g.ins("li $t0, 1")
	g.ins("sw $t0, X")
	g.ins("j t1 !s")
	g.task("t1", "obs", "")
	g.ins("lw $t0, X")
	g.storeSlot("$t0", r0)
	g.filler(g.sh.filler)
	g.ins("lw $t1, X")
	g.storeSlot("$t1", r1)
	g.ins("j obs !s")
	g.observeSlot(r0)
	g.observeSlot(r1)
	g.obsTask()
	g.forbid(outcome(1, 0), "coherence: same-address loads saw new-then-old")
	g.forbid(outcome(0, 1), "coherence: first load committed stale value after violation should have squashed it")
	g.forbid(outcome(0, 0), "coherence: predecessor store never became visible")
}

func emitCoWW(g *emitter) {
	r0, r1 := g.slot(), g.slot()
	g.task("main", "t0", "")
	g.ins("j t0 !s")
	g.task("t0", "t1", "")
	g.ins("li $t0, 1")
	g.ins("sw $t0, X")
	g.filler(g.sh.filler)
	g.ins("li $t0, 2")
	g.ins("sw $t0, X")
	g.ins("j t1 !s")
	g.task("t1", "obs", "")
	g.ins("lw $t0, X")
	g.storeSlot("$t0", r0)
	g.ins("lw $t1, X")
	g.storeSlot("$t1", r1)
	g.ins("j obs !s")
	g.observeSlot(r0)
	g.observeSlot(r1)
	g.obsTask()
	g.forbid(outcome(1, 1), "coherence: intermediate store value committed")
	g.forbid(outcome(2, 1), "coherence: same-address loads saw final-then-intermediate")
	g.forbid(outcome(1, 2), "coherence: first load committed the overwritten value")
}

// --- Multiscalar-specific shapes ------------------------------------

func emitXViol(g *emitter) {
	r0 := g.slot()
	g.task("main", "t0", "")
	g.ins("j t0 !s")
	g.task("t0", "t1", "")
	g.filler(g.sh.filler) // the delay guarantees t1's load issues first
	g.ins("li $t0, 1")
	g.ins("sw $t0, X")
	g.ins("j t1 !s")
	g.task("t1", "obs", "")
	g.ins("lw $t0, X")
	g.storeSlot("$t0", r0)
	g.ins("j obs !s")
	g.observeSlot(r0)
	g.obsTask()
	g.forbid(outcome(0), "speculative load committed a stale value (violation missed)")
}

func emitChain(g *emitter) {
	n := g.sh.tasks
	g.task("main", "t0", "")
	g.ins("j t0 !s")
	for i := 0; i < n; i++ {
		next := fmt.Sprintf("t%d", i+1)
		if i == n-1 {
			next = "obs"
		}
		g.task(fmt.Sprintf("t%d", i), next, "")
		g.filler(g.sh.filler)
		g.ins("lw $t0, X")
		g.ins("addi $t0, $t0, 1")
		g.ins("sw $t0, X")
		g.ins("j %s !s", next)
	}
	g.observeSym("X", 0)
	g.obsTask()
	for k := 0; k < n; k++ {
		g.forbid(outcome(k), fmt.Sprintf("lost update: %d of %d increments committed", k, n))
	}
}

func emitLoop(g *emitter) {
	k := g.sh.tasks // trip count
	g.task("main", "loop", "$s0")
	g.ins("li $s0, 0 !f")
	g.ins("j loop !s")
	g.task("loop", "loop,obs", "$s0")
	g.ins("addi $s0, $s0, 1 !f")
	g.ins("lw $t0, X")
	g.ins("addi $t0, $t0, 1")
	g.ins("sw $t0, X")
	g.ins("li $at, %d", k)
	g.ins("bne $s0, $at, loop !s")
	g.observeSym("X", 0)
	g.observeReg("$s0")
	g.obsTask() // fallthrough target of the loop exit
	g.forbid(outcome(k-1, k), fmt.Sprintf("lost update: %d of %d loop increments committed", k-1, k))
}

func emitRelStore(g *emitter) {
	r0 := g.slot()
	g.task("main", "t0", "$s1")
	g.ins("li $s1, 42 !f")
	g.ins("j t0 !s")
	g.task("t0", "t1", "$s1")
	g.ins("lw $t0, Y") // 0: the non-writing path is always taken
	g.ins("bnez $t0, t0w")
	g.ins("release $s1") // resolve $s1 early, stores still pending
	g.filler(g.sh.filler)
	g.ins("li $t1, 1")
	g.ins("sw $t1, X")
	g.ins("j t1 !s")
	g.label("t0w")
	g.ins("li $s1, 7 !f")
	g.ins("sw $s1, X")
	g.ins("j t1 !s")
	g.task("t1", "obs", "")
	g.ins("lw $t0, X")
	g.storeSlot("$t0", r0)
	g.ins("j obs !s")
	g.observeSlot(r0)
	g.observeReg("$s1")
	g.obsTask()
	g.forbid(outcome(0, 42), "release-before-store: store issued after the release was lost")
	g.forbid(outcome(1, 7), "release-before-store: wrong-path register value forwarded")
}

func emitFwdRace(g *emitter) {
	r0 := g.slot()
	g.task("main", "t0", "")
	g.ins("j t0 !s")
	g.task("t0", "t1", "$s0")
	g.ins("li $s0, 5 !f") // early forward unblocks t1 immediately
	g.filler(g.sh.filler)
	g.ins("li $t0, 1")
	g.ins("sw $t0, X") // the store the forward raced ahead of
	g.ins("j t1 !s")
	g.task("t1", "obs", "")
	g.ins("lw $t0, X")
	g.ins("add $t1, $t0, $s0")
	g.storeSlot("$t1", r0)
	g.ins("j obs !s")
	g.observeSlot(r0)
	g.obsTask()
	g.forbid(outcome(5), "forward-bit race: the load overtook the predecessor's store")
}

// --- Randomized stressor shape --------------------------------------

// poolAddrs is the aliased address pool random programs draw from:
// X and Y plus pool offsets spanning 32 ARB chunks. The first entries
// are heavily weighted so distinct tasks keep colliding.
func (g *emitter) randAddr() string {
	// 50%: one of the two hot words; 25%: a hot pool word; 25%: a
	// scattered pool chunk (capacity pressure on small banks).
	switch g.rng.Intn(4) {
	case 0:
		return "X"
	case 1:
		return "Y"
	case 2:
		return fmt.Sprintf("pool+%d", 4*g.rng.Intn(4))
	default:
		return fmt.Sprintf("pool+%d", 8*g.rng.Intn(32))
	}
}

func emitRand(g *emitter) {
	n := 2 + g.rng.Intn(g.sh.tasks)
	g.task("main", "t0", "")
	g.ins("j t0 !s")
	for i := 0; i < n; i++ {
		next := fmt.Sprintf("t%d", i+1)
		if i == n-1 {
			next = "obs"
		}
		g.task(fmt.Sprintf("t%d", i), next, "")
		sum := g.slot()
		g.ins("li $t7, 0") // the task's load checksum
		ops := 3 + g.rng.Intn(8)
		for o := 0; o < ops; o++ {
			switch g.rng.Intn(4) {
			case 0: // store a literal
				g.ins("li $t0, %d", 1+g.rng.Intn(90))
				g.ins("sw $t0, %s", g.randAddr())
			case 1: // load into the checksum
				g.ins("lw $t0, %s", g.randAddr())
				g.ins("add $t7, $t7, $t0")
			case 2: // read-modify-write
				a := g.randAddr()
				g.ins("lw $t0, %s", a)
				g.ins("addi $t0, $t0, 1")
				g.ins("sw $t0, %s", a)
			default: // filler delay
				g.filler(1 + g.rng.Intn(6))
			}
		}
		g.storeSlot("$t7", sum)
		g.observeSlot(sum)
		g.ins("j %s !s", next)
	}
	g.observeSym("X", 0)
	g.observeSym("Y", 0)
	g.observeSym("pool", 0)
	g.observeSym("pool", 8)
	g.obsTask()
}
