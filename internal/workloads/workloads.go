// Package workloads contains the benchmark programs of Section 5.2,
// rewritten as annotated assembly kernels for this ISA (the substitution
// for the paper's SPEC92/GNU binaries is documented in DESIGN.md §2: each
// kernel preserves the control and dependence structure the paper says
// drives its result). Every workload is a single source that builds both
// the scalar and the multiscalar binary (Table 2's instruction-count
// difference comes from .msonly lines: releases, local induction copies,
// early forwards).
package workloads

import (
	"bytes"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"multiscalar/internal/asm"
	"multiscalar/internal/isa"
)

// PaperPerf is one cell group of Table 3 or Table 4: scalar IPC, 4- and
// 8-unit speedups and task prediction accuracies for one issue
// width/order combination.
type PaperPerf struct {
	ScalarIPC float64
	Speedup4  float64
	Speedup8  float64
	Pred4     float64 // percent
	Pred8     float64
}

// PaperRow holds the paper's published numbers for one benchmark, used by
// EXPERIMENTS.md and the bench harness to print paper-vs-measured tables.
type PaperRow struct {
	// Table 2 (dynamic instruction counts, in millions).
	ScalarM, MultiM, PctIncrease float64
	// Table 3: in-order units; Table 4: out-of-order units.
	InOrder1, InOrder2, OOO1, OOO2 PaperPerf
}

// Workload is one benchmark.
type Workload struct {
	Name        string
	Description string
	// Source returns the annotated assembly for a given problem scale
	// (scale 1 = the size used by the bench harness; tests use smaller).
	Source func(scale int) string
	// DefaultScale is the scale the bench harness runs.
	DefaultScale int
	// TestScale is a fast scale for unit tests.
	TestScale int
	Paper     PaperRow
	// Extra marks workloads beyond the paper's suite: they are excluded
	// from the paper-table harness but covered by the test matrix.
	Extra bool
}

// Build assembles the workload at a scale in the given mode.
func (w *Workload) Build(mode asm.Mode, scale int) (*isa.Program, error) {
	if scale <= 0 {
		scale = w.DefaultScale
	}
	p, err := asm.Assemble(w.Source(scale), mode)
	if err != nil {
		return nil, fmt.Errorf("workload %s (%v): %w", w.Name, mode, err)
	}
	return p, nil
}

var registry = map[string]*Workload{}

func register(w *Workload) {
	if _, dup := registry[w.Name]; dup {
		panic("duplicate workload " + w.Name)
	}
	registry[w.Name] = w
}

// Get returns a workload by name (nil if unknown).
func Get(name string) *Workload { return registry[name] }

// Names lists all workloads in the paper's table order.
func Names() []string {
	order := []string{"compress", "eqntott", "espresso", "gcc", "sc", "xlisp",
		"tomcatv", "cmp", "wc", "example"}
	var out []string
	for _, n := range order {
		if registry[n] != nil {
			out = append(out, n)
		}
	}
	// Any extras (not in the paper's list) go at the end alphabetically.
	var extra []string
	for n := range registry {
		found := false
		for _, o := range order {
			if n == o {
				found = true
			}
		}
		if !found {
			extra = append(extra, n)
		}
	}
	sort.Strings(extra)
	return append(out, extra...)
}

// All returns the paper's benchmark suite in table order (extras
// excluded — they have no paper reference numbers).
func All() []*Workload {
	var out []*Workload
	for _, n := range Names() {
		if w := registry[n]; !w.Extra {
			out = append(out, w)
		}
	}
	return out
}

// exitSeq terminates a program with exit code 0.
const exitSeq = `
	li $v0, 10
	li $a0, 0
	syscall
`

// printInt prints the integer in $a0.
const printInt = `
	li $v0, 1
	syscall
`

// dataLines appends vals to b as lines of 16 comma-separated values under
// the directive (".byte", ".word"). The space is reserved up front from
// the widest value, so a table of any size costs b one allocation.
func dataLines(b *strings.Builder, directive string, vals []int) {
	lo, hi := 0, 0
	for _, v := range vals {
		lo, hi = min(lo, v), max(hi, v)
	}
	width := max(len(strconv.Itoa(lo)), len(strconv.Itoa(hi)))
	b.Grow(len(vals)*(width+2) + (len(vals)/16+1)*(len(directive)+3))
	var num [20]byte
	for i := 0; i < len(vals); i += 16 {
		b.WriteByte('\t')
		b.WriteString(directive)
		b.WriteByte(' ')
		for j, v := range vals[i:min(i+16, len(vals))] {
			if j > 0 {
				b.WriteString(", ")
			}
			b.Write(strconv.AppendInt(num[:0], int64(v), 10))
		}
		b.WriteByte('\n')
	}
}

// asciiLines appends text to b as .ascii lines of 64 bytes each. Only
// '\n', '"' and '\\' are escaped: any other byte inside a string literal
// stands for itself, comment characters included. A data byte costs one
// source byte, not the four or five of a .byte value.
func asciiLines(b *strings.Builder, text []byte) {
	b.Grow(len(text) + bytes.Count(text, []byte{'\n'}) + (len(text)+63)/64*len("\t.ascii \"\"\n"))
	for i := 0; i < len(text); i += 64 {
		line := text[i:min(i+64, len(text))]
		b.WriteString("\t.ascii \"")
		run := 0 // start of the bytes not yet written
		for k, c := range line {
			if c == '\n' || c == '"' || c == '\\' {
				b.Write(line[run:k])
				b.WriteByte('\\')
				if c == '\n' {
					c = 'n'
				}
				b.WriteByte(c)
				run = k + 1
			}
		}
		b.Write(line[run:])
		b.WriteString("\"\n")
	}
}

// rng is a tiny deterministic generator for input data (xorshift32), so
// inputs are reproducible without touching math/rand at simulation time.
type rng uint32

func newRNG(seed uint32) *rng { r := rng(seed | 1); return &r }

func (r *rng) next() uint32 {
	x := uint32(*r)
	x ^= x << 13
	x ^= x >> 17
	x ^= x << 5
	*r = rng(x)
	return x
}

func (r *rng) intn(n int) int { return int(r.next() % uint32(n)) }
