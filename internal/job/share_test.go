package job

import (
	"testing"

	"multiscalar/internal/asm"
	"multiscalar/internal/isa"
	"multiscalar/internal/workloads"
)

// shareSource is a source whose two builds have equal data; diffSource's
// differ in one word.
const (
	shareSource = `	.data
v:	.word 7, 8, 9
	.text
main:
	lw $a0, v
	li $v0, 1
	syscall
	li $v0, 10
	li $a0, 0
	syscall
`
	diffSource = `	.data
v:	.msonly .word 1
	.sconly .word 2
	.text
main:
	lw $a0, v
	li $v0, 1
	syscall
	li $v0, 10
	li $a0, 0
	syscall
`
)

// bothModes resolves s in scalar mode and then in multiscalar mode.
func bothModes(t *testing.T, s Spec) (scalar, ms *isa.Program) {
	t.Helper()
	var out [2]*isa.Program
	for i, m := range []asm.Mode{asm.ModeScalar, asm.ModeMultiscalar} {
		s.Mode = m
		p, err := s.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		out[i] = p
	}
	return out[0], out[1]
}

func sameBytes(a, b *isa.Program) bool {
	return len(a.Data) > 0 && len(b.Data) > 0 && &a.Data[0] == &b.Data[0]
}

// TestBuildsShareDataAcrossModes: a workload's or a source's scalar and
// multiscalar builds hold one data segment — every workload at its test
// scale, tomcatv at the ledger's long scale, and a source text — and the
// shared program hashes as a lone build of it does.
func TestBuildsShareDataAcrossModes(t *testing.T) {
	ResetBuildMemo()
	defer ResetBuildMemo()
	var specs []Spec
	for _, name := range workloads.Names() {
		specs = append(specs, Spec{Op: OpAssemble, Workload: name, Scale: workloads.Get(name).TestScale})
	}
	specs = append(specs,
		Spec{Op: OpAssemble, Workload: "tomcatv", Scale: 384},
		Spec{Op: OpAssemble, Source: shareSource})
	for _, s := range specs {
		scalar, ms := bothModes(t, s)
		if !sameBytes(scalar, ms) {
			name := s.Workload
			if name == "" {
				name = "source"
			}
			t.Errorf("%s@%d: the two modes hold %d and %d data bytes apart", name, s.Scale, len(scalar.Data), len(ms.Data))
		}
	}

	// A lone build shares nothing, and hashes as the shared one does.
	s := Spec{Op: OpAssemble, Source: shareSource, Mode: asm.ModeMultiscalar}
	shared, err := s.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	ResetBuildMemo()
	lone, err := s.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	s.Mode = asm.ModeScalar
	ResetBuildMemo()
	loneScalar, err := s.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if sameBytes(lone, loneScalar) || sameBytes(lone, shared) {
		t.Error("a build with no resident peer shares its data")
	}
	if hs, hl := hash(t, shared), hash(t, lone); hs != hl {
		t.Error("sharing data changed the program hash")
	}
}

// TestBuildsWithDifferentDataDoNotShare: a source whose two modes build
// different data keeps two segments, each as assembled.
func TestBuildsWithDifferentDataDoNotShare(t *testing.T) {
	ResetBuildMemo()
	defer ResetBuildMemo()
	scalar, ms := bothModes(t, Spec{Op: OpAssemble, Source: diffSource})
	if sameBytes(scalar, ms) {
		t.Fatal("builds with different data share one segment")
	}
	if scalar.Data[3] != 2 || ms.Data[3] != 1 {
		t.Errorf("data words: scalar %v, multiscalar %v", scalar.Data[:4], ms.Data[:4])
	}
}

func hash(t *testing.T, p *isa.Program) string {
	t.Helper()
	h, err := ProgramHash(p)
	if err != nil {
		t.Fatal(err)
	}
	return h
}
