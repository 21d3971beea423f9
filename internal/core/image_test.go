package core

import (
	"crypto/sha256"
	"testing"

	"multiscalar/internal/asm"
	"multiscalar/internal/workloads"
)

// TestRunsLeaveProgramDataUnwritten: a program's memory image points
// into Program.Data (interp.ProgramImage), so every store a run makes
// must land in a private copy-on-write page. tomcatv's timing run and
// the functional machine judging it both write most of its arrays;
// afterwards the data hashes as it did after assembly, and a second
// timing run gives the same Result.
func TestRunsLeaveProgramDataUnwritten(t *testing.T) {
	w := workloads.Get("tomcatv")
	p, err := w.Build(asm.ModeMultiscalar, w.DefaultScale) // nine full data pages
	if err != nil {
		t.Fatal(err)
	}
	built := sha256.Sum256(p.Data)
	first, d := runJudged(t, p, p, DefaultConfig(4, 2, true))
	if d != nil {
		t.Fatal(d)
	}
	if sha256.Sum256(p.Data) != built {
		t.Fatal("a timing run and its functional machine wrote Program.Data")
	}
	second, d := runJudged(t, p, p, DefaultConfig(4, 2, true))
	if d != nil {
		t.Fatal(d)
	}
	if *second != *first {
		t.Errorf("second run %+v, first %+v", *second, *first)
	}
}
