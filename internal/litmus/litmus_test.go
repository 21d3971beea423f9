package litmus

import (
	"fmt"
	"strings"
	"testing"
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
	if got := p.Classify("1 1 "); got != "legal" {
		t.Errorf("Classify(oracle) = %q", got)
	}
	if got := p.Classify("1 0 "); !strings.Contains(got, "message passing") {
		t.Errorf("Classify(forbidden) = %q", got)
	}
	if got := p.Classify("9 9 "); !strings.Contains(got, "uncatalogued") {
		t.Errorf("Classify(unknown) = %q", got)
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

// TestExitCodeMismatch: a run is oracle-equal only if it exits as the
// oracle did. With the oracle's exit code planted wrong, every cell is a
// mismatch whose output and committed count agree with the oracle and
// whose diagnosis names the two exit codes. Its artifact records both
// exit codes and, decoded again, replays as reproduced.
func TestExitCodeMismatch(t *testing.T) {
	p, err := Generate(Params{Shape: "xviol"})
	if err != nil {
		t.Fatal(err)
	}
	wrong := *p.Oracle
	wrong.ExitCode += 3
	p.Oracle = &wrong
	matrix := Matrix(true)
	mms := RunDiff([]*Program{p}, matrix, 0)
	if len(mms) != len(matrix) {
		t.Fatalf("%d mismatches over %d cells, want one per cell", len(mms), len(matrix))
	}
	want := fmt.Sprintf("exit code %d, oracle exited %d", wrong.ExitCode-3, wrong.ExitCode)
	for _, mm := range mms {
		if mm.Err != "" || mm.Got != p.Oracle.Out || mm.Committed != p.Oracle.ICount || mm.Diagnosis != want {
			t.Errorf("%s: err %q, committed %d, diagnosis %q; want %q", mm, mm.Err, mm.Committed, mm.Diagnosis, want)
		}
		data, err := mm.Artifact.Encode()
		if err != nil {
			t.Fatal(err)
		}
		a, err := DecodeArtifact(data)
		if err != nil {
			t.Fatal(err)
		}
		if a.WantExit != wrong.ExitCode || a.GotExit != wrong.ExitCode-3 {
			t.Errorf("%s: artifact want_exit %d got_exit %d, want %d and %d", mm, a.WantExit, a.GotExit, wrong.ExitCode, wrong.ExitCode-3)
		}
		r, err := a.Replay()
		if err != nil {
			t.Fatal(err)
		}
		if !r.Reproduced || r.Err != "" || r.ExitCode != wrong.ExitCode-3 {
			t.Errorf("%s: replay reproduced %v, err %q, exit %d", mm, r.Reproduced, r.Err, r.ExitCode)
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

func TestArtifactRoundTripAndReplay(t *testing.T) {
	p, err := Generate(Params{Shape: "xviol"})
	if err != nil {
		t.Fatal(err)
	}
	e := MatrixEntry{Units: 4, Entries: 1}
	// A fabricated mismatch: claim the oracle wanted something else,
	// so the (correct) machine output diverges from the record and
	// the replay must reproduce.
	mm := &Mismatch{Program: p, Entry: e, Got: p.Oracle.Out, Committed: p.Oracle.ICount}
	art := NewArtifact(p, e, mm, 99, nil)
	art.Want = "0 "
	art.WantCount = 1

	data, err := art.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeArtifact(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != art.Name || back.Seed != 99 || back.Source != p.Source {
		t.Fatalf("artifact round trip lost fields: %+v", back)
	}
	r, err := back.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if !r.Reproduced {
		t.Error("fabricated mismatch did not reproduce")
	}
	if r.Got != p.Oracle.Out {
		t.Errorf("replay output %q, want %q", r.Got, p.Oracle.Out)
	}

	// With the true oracle recorded, the same artifact stops
	// reproducing — the pass path of `mslitmus -replay`.
	back.Want = p.Oracle.Out
	back.WantCount = p.Oracle.ICount
	r, err = back.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if r.Reproduced {
		t.Error("healthy run reported as reproduced mismatch")
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
