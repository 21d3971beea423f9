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
	"fmt"
	"slices"
	"sort"
	"unsafe"

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

// codeRoom is the room a generator reserves for its instructions and
// directives: every suite program's code is under 4 KB.
const codeRoom = 4 << 10

// newSource returns the buffer a generator writes its program into,
// reserved once for the code and for the data bytes the generator has
// counted (tableBytes, asciiBytes), so that no line appended later grows
// it. The data loops take the buffer and hand it back, so it stays in
// registers while they run; the generator returns it through text.
func newSource(data int) []byte { return make([]byte, 0, codeRoom+data) }

// text is the finished source as a string. It shares src's bytes, as
// strings.Builder's String does: a generator appends nothing after it.
func text(src []byte) string { return unsafe.String(unsafe.SliceData(src), len(src)) }

// tableBytes bounds the text of n values of at most width characters
// each (sign included), written by a table under the directive.
func tableBytes(directive string, n, width int) int {
	return n*(width+2) + (n+15)/16*(len(directive)+3)
}

// width is the number of characters of v in decimal, sign included.
func width(v int) int {
	if v < 0 {
		return 1 + digits(uint64(-v))
	}
	return digits(uint64(v))
}

// digits is the number of decimal digits of u. A table's values are
// mostly short, so the common widths are compares, not divisions.
func digits(u uint64) int {
	switch {
	case u < 10:
		return 1
	case u < 100:
		return 2
	case u < 1000:
		return 3
	case u < 10000:
		return 4
	}
	return 4 + digits(u/10000)
}

// table writes values as lines of 16 comma-separated values under one
// directive (".byte", ".word"), each value as it is generated.
type table struct {
	directive string
	n         uint // values written
}

// put appends the next value to src. Room for the longest value and its
// separators is made once, and the value is written into it in place,
// its digits two at a time from the right.
func (t *table) put(src []byte, v int) []byte {
	room := len(t.directive) + 24 // a tab, a space, a sign, 20 digits and a newline
	src = slices.Grow(src, room)
	n := len(src)
	s := src[n : n+room]
	k := 2
	if t.n%16 == 0 {
		s[0] = '\t'
		k = 1 + copy(s[1:], t.directive)
		s[k] = ' '
		k++
	} else {
		s[0], s[1] = ',', ' '
	}
	u := uint64(v)
	if v < 0 {
		s[k] = '-'
		k++
		u = -u
	}
	e := k + digits(u) // the end of the digits
	for i := e; u >= 100; u /= 100 {
		i -= 2
		s[i], s[i+1] = digitPairs[u%100*2], digitPairs[u%100*2+1]
	}
	if u >= 10 {
		s[k], s[k+1] = digitPairs[2*u], digitPairs[2*u+1]
	} else {
		s[k] = '0' + byte(u)
	}
	if t.n++; t.n%16 == 0 {
		s[e] = '\n'
		e++
	}
	return src[:n+e]
}

const digitPairs = "00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"

// end finishes the last line.
func (t *table) end(src []byte) []byte {
	if t.n%16 != 0 {
		src = append(src, '\n')
	}
	return src
}

// asciiBytes bounds the text of n bytes, of which at most escapes need
// escaping, written with appendASCII.
func asciiBytes(n, escapes int) int {
	return n + escapes + (n+63)/64*len("\t.ascii \"\"\n")
}

// appendASCII appends c, byte i of a text written as .ascii lines of 64
// bytes each, as it is generated. Only '\n', '"' and '\\' are escaped:
// any other byte inside a string literal stands for itself, comment
// characters included. A data byte costs one source byte, not the four
// or five of a .byte value.
func appendASCII(src []byte, i int, c byte) []byte {
	if uint(i)%64 == 0 {
		src = append(src, "\t.ascii \""...)
	}
	if c <= '\\' && (c == '\n' || c == '"' || c == '\\') {
		if c == '\n' {
			c = 'n'
		}
		src = append(src, '\\', c)
	} else {
		src = append(src, c)
	}
	if uint(i)%64 == 63 {
		src = append(src, "\"\n"...)
	}
	return src
}

// endASCII finishes a text of n bytes.
func endASCII(src []byte, n int) []byte {
	if n%64 != 0 {
		src = append(src, "\"\n"...)
	}
	return src
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
