package asm_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"multiscalar/internal/asm"
	"multiscalar/internal/isa"
	"multiscalar/internal/job"
	"multiscalar/internal/workloads"
)

// programHash is job.ProgramHash — the SHA-256 of the .msb bytes — in hex.
func programHash(t *testing.T, p *isa.Program) string {
	t.Helper()
	h, err := job.ProgramHash(p)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", h)
}

// goldenHashes assembles every registered workload in both modes at its
// test and default scale, and every testdata/*.s program, and renders one
// "<what> <mode> <sha256 of the .msb bytes>" line each.
func goldenHashes(t *testing.T) string {
	t.Helper()
	modes := []asm.Mode{asm.ModeScalar, asm.ModeMultiscalar}
	var b strings.Builder
	for _, name := range workloads.Names() {
		w := workloads.Get(name)
		for _, scale := range []int{w.TestScale, w.DefaultScale} {
			for _, mode := range modes {
				p, err := w.Build(mode, scale)
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&b, "%s@%d %v %s\n", w.Name, scale, mode, programHash(t, p))
			}
		}
	}
	files, err := filepath.Glob("../../testdata/*.s")
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata programs: %v", err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range modes {
			res, err := asm.AssembleOpts(string(src), asm.Options{Mode: mode, NoLint: true})
			if err != nil {
				t.Fatalf("%s (%v): %v", f, mode, err)
			}
			fmt.Fprintf(&b, "%s %v %s\n", filepath.Base(f), mode, programHash(t, res.Prog))
		}
	}
	return b.String()
}

// TestProgramBytesPinned: every program the suite and testdata/ can
// produce, byte for byte as recorded at the commit before pass 1 was
// rewritten (zero-allocation lexer, constants written straight into the
// data segment). A changed line names the program whose bytes moved.
func TestProgramBytesPinned(t *testing.T) {
	want, err := os.ReadFile("testdata/program_hashes.txt")
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Split(goldenHashes(t), "\n")
	wantLines := strings.Split(string(want), "\n")
	if len(got) != len(wantLines) {
		t.Fatalf("%d programs assembled, %d recorded", len(got)-1, len(wantLines)-1)
	}
	for i := range got {
		if got[i] != wantLines[i] {
			t.Errorf("program bytes moved\n got %s\nwant %s", got[i], wantLines[i])
		}
	}
}
