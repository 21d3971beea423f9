package litmus

import (
	"strings"
	"testing"

	"multiscalar/internal/asm"
	"multiscalar/internal/core"
)

// TestShapeOracles pins every curated shape's legal outcome: the
// sequential (oracle) result each differential run must reproduce.
// A change here means the shape's semantics changed — update the
// forbidden catalogue and docs/litmus.md together.
func TestShapeOracles(t *testing.T) {
	want := map[string]string{
		"mp":       "1 1 ",
		"sb":       "0 1 ",
		"lb":       "0 1 ",
		"corr":     "1 1 ",
		"corw":     "2 2 ",
		"xviol":    "1 ",
		"chain":    "4 ",
		"loop":     "6 6 ",
		"relstore": "1 42 ",
		"fwdrace":  "6 ",
	}
	for _, name := range Shapes() {
		if name == "rand" {
			continue
		}
		for _, pad := range []int{4, 8, 128} {
			p, err := Generate(Params{Shape: name, Pad: pad})
			if err != nil {
				t.Fatalf("%s pad%d: %v", name, pad, err)
			}
			if p.Oracle.Out != want[name] {
				t.Errorf("%s pad%d: oracle %q, want %q", name, pad, p.Oracle.Out, want[name])
			}
			if p.Oracle.ExitCode != 0 {
				t.Errorf("%s pad%d: exit code %d", name, pad, p.Oracle.ExitCode)
			}
			// The legal outcome must never appear in its own forbidden
			// catalogue.
			if why, ok := p.Forbidden[p.Oracle.Out]; ok {
				t.Errorf("%s pad%d: oracle output is catalogued forbidden: %s", name, pad, why)
			}
		}
	}
}

func TestClassify(t *testing.T) {
	p, err := Generate(Params{Shape: "mp"})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Classify("1 1 "); got != "" {
		t.Errorf("Classify(oracle) = %q, want none: the legal outcome is never catalogued", got)
	}
	if got := p.Classify("1 0 "); !strings.Contains(got, "message passing") {
		t.Errorf("Classify(forbidden) = %q", got)
	}
	if got := p.Classify("9 9 "); got != "" {
		t.Errorf("Classify(unknown) = %q, want none", got)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Random(123)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Random(123)
	if err != nil {
		t.Fatal(err)
	}
	if a.Source != b.Source {
		t.Error("same seed produced different programs")
	}
	c, err := Random(124)
	if err != nil {
		t.Fatal(err)
	}
	if a.Source == c.Source {
		t.Error("different seeds produced identical programs")
	}
}

// TestExitCodeMismatch: a run is sequential only if it exits as the
// sequential run does. Judged by a functional machine over a sibling
// program that exits with 3, every cell of the quick matrix is a mismatch
// whose divergence is the exit code at the run end, 0 against 3: output
// and committed count agree. Its artifact records that divergence, and
// the replay, judged by the program itself, does not reproduce it.
func TestExitCodeMismatch(t *testing.T) {
	p, err := Generate(Params{Shape: "xviol"})
	if err != nil {
		t.Fatal(err)
	}
	exit := "li $a0, 0\n\tsyscall"
	if strings.Count(p.Source, exit) != 1 {
		t.Fatalf("the generated source has %d exits with code 0, want 1", strings.Count(p.Source, exit))
	}
	sibling, err := asm.Assemble(strings.Replace(p.Source, exit, "li $a0, 3\n\tsyscall", 1), asm.ModeMultiscalar)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range Matrix(true) {
		_, mm := runCell(p, sibling, e, 0, nil)
		if mm == nil {
			t.Fatalf("%s: no mismatch", e)
		}
		if d := mm.Divergence; mm.Err != "" || d == nil || d.What != core.DivExitCode || d.Timing != "0" || d.Functional != "3" {
			t.Fatalf("%s: %s; want an exit-code divergence 0 against 3", e, mm)
		}
		data, err := mm.Artifact.Encode()
		if err != nil {
			t.Fatal(err)
		}
		a, err := DecodeArtifact(data)
		if err != nil {
			t.Fatal(err)
		}
		if a.Divergence == nil || *a.Divergence != *mm.Divergence {
			t.Errorf("%s: artifact records %v, want %v", e, a.Divergence, mm.Divergence)
		}
		r, err := a.Replay()
		if err != nil {
			t.Fatal(err)
		}
		if r.Reproduced || r.Divergence != nil || r.Err != "" {
			t.Errorf("%s: replay reproduced %v, divergence %v, err %q", e, r.Reproduced, r.Divergence, r.Err)
		}
	}
}

// TestCorpusQuickMatrix is the in-tree slice of the CI gate: the full
// curated corpus across the reduced matrix (units × policies ×
// {event-driven, -noskip} with capacity-1 banks) with zero oracle
// mismatches. CI's litmus-smoke job runs the full 64-config matrix.
func TestCorpusQuickMatrix(t *testing.T) {
	progs, err := Corpus()
	if err != nil {
		t.Fatal(err)
	}
	if len(progs) < 8*3 {
		t.Fatalf("corpus has %d programs, want >= 24 (8 families x 3 paddings)", len(progs))
	}
	for _, mm := range RunDiff(progs, Matrix(true), 0) {
		t.Errorf("%s", mm)
	}
}

func TestMatrixShape(t *testing.T) {
	full, quick := Matrix(false), Matrix(true)
	if len(full) != 64 {
		t.Errorf("full matrix has %d entries, want 64", len(full))
	}
	if len(quick) != 16 {
		t.Errorf("quick matrix has %d entries, want 16", len(quick))
	}
	seen := map[string]bool{}
	for _, e := range full {
		if seen[e.String()] {
			t.Errorf("duplicate matrix entry %s", e)
		}
		seen[e.String()] = true
	}
}

func TestStressSmoke(t *testing.T) {
	rep, err := Stress(StressOpts{Seed: 7, Programs: 20})
	if err != nil {
		t.Fatal(err)
	}
	for _, mm := range rep.Mismatches {
		t.Errorf("%s", mm)
	}
	// The stressor exists to hit the capacity and violation paths; a
	// run that never overflows a 1-entry bank means the bias broke.
	if rep.Overflows == 0 {
		t.Error("stress run produced no ARB overflows")
	}
	if rep.Violations == 0 {
		t.Error("stress run produced no memory-order violations")
	}
	var bankAllocs uint64
	for _, b := range rep.Banks {
		bankAllocs += b.Allocs
	}
	if bankAllocs != rep.Allocs {
		t.Errorf("per-bank allocs sum %d != aggregate %d", bankAllocs, rep.Allocs)
	}
	if !strings.Contains(rep.String(), "squash distance:") {
		t.Error("report missing squash-distance histogram")
	}
}

// fccSrc branches on the FP condition flag first thing in the task after
// the compare (lint error MS016, so it is built with the gate off, as
// Replay rebuilds it): the machine does not carry the flag across the
// boundary, so task t exits to no where the sequential run goes to yes —
// a divergence every replay reproduces.
const fccSrc = `
	.data
x:	.double 1.0, 2.0
	.text
main:
	la     $t0, x
	l.d    $f0, 0($t0)
	l.d    $f2, 8($t0)
	c.lt.d $f0, $f2
	j      t !s
t:
	bc1t   yes !s
no:
	li     $a0, 0
	li     $v0, 1
	syscall
	li     $v0, 10
	li     $a0, 0
	syscall
yes:
	li     $a0, 1
	li     $v0, 1
	syscall
	li     $v0, 10
	li     $a0, 0
	syscall
	.task main targets=t
	.task t targets=yes,no
	.task no
	.task yes
`

func TestArtifactRoundTripAndReplay(t *testing.T) {
	res, err := asm.AssembleOpts(fccSrc, asm.Options{Mode: asm.ModeMultiscalar, NoLint: true})
	if err != nil {
		t.Fatal(err)
	}
	prog := res.Prog
	p := &Program{Name: "fcc", Source: fccSrc, Prog: prog}
	e := MatrixEntry{Units: 4, Entries: 1, NoSkip: true}
	_, mm := runCell(p, prog, e, 99, nil)
	if mm == nil || mm.Divergence == nil || mm.Divergence.What != core.DivNextPC || mm.Divergence.Task != "t" {
		t.Fatalf("cell: %v; want task t's next-PC divergence", mm)
	}

	data, err := mm.Artifact.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeArtifact(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != "fcc" || back.Seed != 99 || back.Source != fccSrc || !back.NoSkip || back.Divergence == nil || *back.Divergence != *mm.Divergence {
		t.Fatalf("artifact round trip lost fields: %+v", back)
	}
	r, err := back.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if !r.Reproduced || r.Divergence == nil || *r.Divergence != *mm.Divergence {
		t.Errorf("replay reproduced %v with %v, want %v", r.Reproduced, r.Divergence, mm.Divergence)
	}

	// A recorded divergence the run does not report — another cycle — is
	// not reproduced: the pass path of `mslitmus -replay`.
	back.Divergence.Cycle++
	if r, err = back.Replay(); err != nil {
		t.Fatal(err)
	}
	if r.Reproduced {
		t.Error("a different first divergence reported as reproduced")
	}
}

// FuzzLitmusGen is the generator's contract fuzz: for any seed, the
// randomized shape must assemble lint-clean (Generate keeps the lint
// gate on) and the oracle must terminate with exit 0.
func FuzzLitmusGen(f *testing.F) {
	for s := int64(0); s < 8; s++ {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		p, err := Random(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if p.Oracle.ICount == 0 {
			t.Fatalf("seed %d: empty oracle run", seed)
		}
	})
}
