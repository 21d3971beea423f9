package core

import (
	"bytes"
	"crypto/sha256"
	"testing"

	"multiscalar/internal/asm"
	"multiscalar/internal/isa"
	"multiscalar/internal/workloads"
)

// TestRunsLeaveProgramDataUnwritten: a program's memory image points
// into Program.Data (interp.ProgramImage), and the build store gives a
// workload's scalar and multiscalar builds one Data, so every store a run
// makes must land in a private copy-on-write page. tomcatv's two builds
// share their bytes here as they do there; its timing runs in both modes
// and the functional machines judging them write most of its arrays.
// Afterwards the data hashes as it did after assembly, and a second run
// of each mode gives the same Result.
func TestRunsLeaveProgramDataUnwritten(t *testing.T) {
	w := workloads.Get("tomcatv")
	ms, err := w.Build(asm.ModeMultiscalar, w.DefaultScale) // nine full data pages
	if err != nil {
		t.Fatal(err)
	}
	scalar, err := w.Build(asm.ModeScalar, w.DefaultScale)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(scalar.Data, ms.Data) {
		t.Fatal("tomcatv's two builds assemble different data")
	}
	scalar.Data = ms.Data
	built := sha256.Sum256(ms.Data)
	runs := []struct {
		p   *isa.Program
		cfg Config
	}{{scalar, ScalarConfig(2, true)}, {ms, DefaultConfig(4, 2, true)}}
	var first []Result
	for pass := 0; pass < 2; pass++ {
		for i, r := range runs {
			res, d := runJudged(t, r.p, r.p, r.cfg)
			if d != nil {
				t.Fatal(d)
			}
			if sha256.Sum256(ms.Data) != built {
				t.Fatalf("pass %d: a %d-unit run and its functional machine wrote Program.Data", pass, r.cfg.NumUnits)
			}
			if pass == 0 {
				first = append(first, *res)
			} else if *res != first[i] {
				t.Errorf("second %d-unit run %+v, first %+v", r.cfg.NumUnits, *res, first[i])
			}
		}
	}
}
