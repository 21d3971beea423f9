// Package litmus generates memory-ordering litmus tests for the
// multiscalar machine and judges the speculative cores in lockstep with
// the functional machine at scale.
//
// A multiscalar processor maintains sequential semantics: however the
// units interleave speculative loads and stores, the committed outcome
// of a program must equal the functional interpreter's. Each litmus
// shape arranges the classic ordering hazards — message passing, store
// buffering, load buffering, same-address coherence — and the hazards
// specific to this microarchitecture (cross-task store→speculative-load
// violations, release-before-store, forward-bit races) as short
// annotated task chains whose observations are printed by a terminal
// task. Every cell runs judged (core.Multiscalar.Judge): each task retire
// must leave the functional machine's state. The named forbidden outcomes
// are the weak behaviors a missed violation would produce, kept as a
// diagnosis catalogue for the final output (see docs/litmus.md).
package litmus

import (
	"fmt"
	"sort"

	"multiscalar/internal/asm"
	"multiscalar/internal/isa"
	"multiscalar/internal/job"
)

// Params select one generated program.
type Params struct {
	// Shape is the shape-family name (see Shapes).
	Shape string
	// Pad is the byte distance between the two shared locations X and
	// Y (minimum 4). 4 places them in the same ARB chunk, 8 in
	// adjacent chunks (different banks under the pow2 bank mapping),
	// 128 sixteen chunks apart — the same bank again for every bank
	// count the corpus runs (2·units with units ≤ 8 ⇒ 1..16 banks).
	Pad int
	// Seed drives the randomized shape ("rand"); curated shapes are
	// deterministic and ignore it.
	Seed int64
}

// Program is one generated litmus test with its reference outcomes.
type Program struct {
	Params Params
	Name   string
	Source string       // annotated assembly text
	Prog   *isa.Program // multiscalar build (lint-clean)
	// Oracle is the functional reference: the sequential outcome the
	// shape tests pin and mslitmus prints.
	Oracle *job.Oracle
	// Forbidden names the weak outcomes worth a specific diagnosis:
	// output → what went wrong. Any other divergence is still a
	// failure, just an unnamed one.
	Forbidden map[string]string
}

// Classify names the weak outcome an observed final output is, from the
// forbidden catalogue: "" for an output the catalogue does not name (the
// legal one among them: it is never catalogued).
func (p *Program) Classify(got string) string {
	return p.Forbidden[got]
}

// genMaxInstrs bounds the functional runs of a generated program; every
// curated and randomized shape terminates well under it.
const genMaxInstrs = 1 << 22

// Generate builds the program for params: emit the source, assemble it
// in multiscalar mode (the lint gate stays on — a generated program
// that violates the annotation contract is a generator bug), and run
// the functional oracle to fix the legal outcome.
func Generate(p Params) (*Program, error) {
	if p.Pad < 4 {
		p.Pad = 4
	}
	sh := shapeByName(p.Shape)
	if sh == nil {
		return nil, fmt.Errorf("litmus: unknown shape %q", p.Shape)
	}
	g := newEmitter(p, sh)
	sh.emit(g)
	src, name := g.finish(), g.name()

	prog, err := asm.Assemble(src, asm.ModeMultiscalar)
	if err != nil {
		return nil, fmt.Errorf("litmus: %s: %w\n%s", name, err, src)
	}
	oracle, err := job.RunOracle(prog, nil, genMaxInstrs)
	if err != nil {
		return nil, fmt.Errorf("litmus: %s: oracle: %w", name, err)
	}
	if oracle.ExitCode != 0 {
		return nil, fmt.Errorf("litmus: %s: oracle exit code %d", name, oracle.ExitCode)
	}
	return &Program{
		Params:    p,
		Name:      name,
		Source:    src,
		Prog:      prog,
		Oracle:    oracle,
		Forbidden: g.forbidden,
	}, nil
}

// Shapes lists the shape families in catalogue order.
func Shapes() []string {
	names := make([]string, 0, len(shapes))
	for _, s := range shapes {
		names = append(names, s.name)
	}
	return names
}

// ShapeDoc returns the one-line description of a shape family.
func ShapeDoc(name string) string {
	if s := shapeByName(name); s != nil {
		return s.doc
	}
	return ""
}

// Corpus generates the curated corpus: every curated shape family at
// every padding class. Deterministic — CI runs exactly this set.
func Corpus() ([]*Program, error) {
	var progs []*Program
	for _, sh := range shapes {
		if sh.name == "rand" {
			continue
		}
		for _, pad := range []int{4, 8, 128} {
			p, err := Generate(Params{Shape: sh.name, Pad: pad})
			if err != nil {
				return nil, err
			}
			progs = append(progs, p)
		}
	}
	return progs, nil
}

// Find returns the corpus program with the given name (nil if absent).
func Find(progs []*Program, name string) *Program {
	for _, p := range progs {
		if p.Name == name {
			return p
		}
	}
	return nil
}

// Random generates one randomized program from the seed: a
// straight-line chain of tasks issuing loads, stores and
// read-modify-writes over a small address pool biased toward aliasing,
// the layout the ARB stressor feeds on. Deterministic per seed.
func Random(seed int64) (*Program, error) {
	return Generate(Params{Shape: "rand", Seed: seed})
}

// SortedForbidden renders a deterministic listing of a forbidden
// catalogue (tests, -dump).
func SortedForbidden(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
