package asm

import (
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"multiscalar/internal/isa"
)

// mustAssemble assembles with the lint post-pass disabled: these tests
// exercise assembler mechanics on minimal fragments that do not try to
// honor the full annotation contract. TestLintPostPass covers the
// default path.
func mustAssemble(t *testing.T, src string, mode Mode) *isa.Program {
	t.Helper()
	res, err := AssembleOpts(src, Options{Mode: mode, NoLint: true})
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	return res.Prog
}

func TestBasicProgram(t *testing.T) {
	src := `
	.text
main:
	li   $t0, 5
	addi $t1, $t0, 3
	add  $t2, $t0, $t1
	syscall
`
	p := mustAssemble(t, src, ModeScalar)
	if p.Entry != isa.TextBase {
		t.Errorf("entry = 0x%x", p.Entry)
	}
	if len(p.Text) != 4 {
		t.Fatalf("text len = %d", len(p.Text))
	}
	if p.Text[0].Op != isa.OpOri || p.Text[0].Imm != 5 {
		t.Errorf("li expanded to %v", p.Text[0])
	}
	if p.Text[2].Op != isa.OpAdd || p.Text[2].Rd != isa.RegT0+2 {
		t.Errorf("add = %v", p.Text[2])
	}
}

func TestLabelsAndBranches(t *testing.T) {
	src := `
main:
	li  $t0, 10
loop:
	addi $t0, $t0, -1
	bnez $t0, loop
	j done
done:
	syscall
`
	p := mustAssemble(t, src, ModeScalar)
	loopAddr, ok := p.Symbol("loop")
	if !ok || loopAddr != isa.TextBase+4 {
		t.Fatalf("loop = 0x%x, ok=%v", loopAddr, ok)
	}
	br := p.Text[2]
	if br.Op != isa.OpBne || br.Target != loopAddr || br.Rt != isa.RegZero {
		t.Errorf("bnez = %v", br)
	}
	if p.Text[3].Op != isa.OpJ || p.Text[3].Target != isa.TextBase+16 {
		t.Errorf("j = %v", p.Text[3])
	}
}

func TestImmediateThirdOperand(t *testing.T) {
	src := `
main:
	add $t0, $t1, 4
	sub $t0, $t1, 4
	and $t0, $t1, 0xff
	or  $t0, $t1, 1
	slt $t0, $t1, 100
	sllv $t0, $t1, 3
	syscall
`
	p := mustAssemble(t, src, ModeScalar)
	want := []struct {
		op  isa.Op
		imm int32
	}{
		{isa.OpAddi, 4}, {isa.OpAddi, -4}, {isa.OpAndi, 0xff},
		{isa.OpOri, 1}, {isa.OpSlti, 100}, {isa.OpSll, 3},
	}
	for i, w := range want {
		if p.Text[i].Op != w.op || p.Text[i].Imm != w.imm {
			t.Errorf("instr %d = %v, want %v imm=%d", i, &p.Text[i], w.op, w.imm)
		}
	}
}

func TestMemoryOperands(t *testing.T) {
	src := `
	.data
buf:	.word 1, 2, 3
	.text
main:
	lw $t0, 0($a0)
	lw $t1, 8($a0)
	lw $t2, buf
	lw $t3, buf+4($zero)
	sw $t0, -12($sp)
	lb $t4, ($a1)
	syscall
`
	p := mustAssemble(t, src, ModeScalar)
	if p.Text[0].Rs != isa.RegA0 || p.Text[0].Imm != 0 {
		t.Errorf("lw0 = %v", p.Text[0])
	}
	if p.Text[2].Rs != isa.RegZero || uint32(p.Text[2].Imm) != isa.DataBase {
		t.Errorf("lw buf = %v", p.Text[2])
	}
	if uint32(p.Text[3].Imm) != isa.DataBase+4 {
		t.Errorf("lw buf+4 = %v", p.Text[3])
	}
	if p.Text[4].Imm != -12 || p.Text[4].Rt != isa.RegT0 {
		t.Errorf("sw = %v", p.Text[4])
	}
	if p.Text[5].Rs != isa.RegA1 || p.Text[5].Imm != 0 {
		t.Errorf("lb = %v", p.Text[5])
	}
}

func TestDataDirectives(t *testing.T) {
	src := `
	.data
w:	.word 0x11223344, -1
b:	.byte 1, 2, 'A', '\n'
h:	.half 0x1234
f:	.float 1.5
d:	.double 2.25, -0.5
s:	.asciiz "hi\n"
sp:	.space 3
	.align 2
e:	.word w
	.text
main:	syscall
`
	p := mustAssemble(t, src, ModeScalar)
	data := p.Data
	if binary.BigEndian.Uint32(data[0:]) != 0x11223344 {
		t.Errorf("word0 = %x", data[0:4])
	}
	if binary.BigEndian.Uint32(data[4:]) != 0xffffffff {
		t.Errorf("word1 = %x", data[4:8])
	}
	if data[8] != 1 || data[9] != 2 || data[10] != 'A' || data[11] != '\n' {
		t.Errorf("bytes = %v", data[8:12])
	}
	if binary.BigEndian.Uint16(data[12:]) != 0x1234 {
		t.Errorf("half = %x", data[12:14])
	}
	fAddr, _ := p.Symbol("f")
	off := fAddr - isa.DataBase
	if math.Float32frombits(binary.BigEndian.Uint32(data[off:])) != 1.5 {
		t.Errorf("float = %x", data[off:off+4])
	}
	dAddr, _ := p.Symbol("d")
	off = dAddr - isa.DataBase
	if math.Float64frombits(binary.BigEndian.Uint64(data[off:])) != 2.25 {
		t.Errorf("double = %x", data[off:off+8])
	}
	if math.Float64frombits(binary.BigEndian.Uint64(data[off+8:])) != -0.5 {
		t.Errorf("double2 = %x", data[off+8:off+16])
	}
	sAddr, _ := p.Symbol("s")
	off = sAddr - isa.DataBase
	if string(data[off:off+3]) != "hi\n" || data[off+3] != 0 {
		t.Errorf("asciiz = %q", data[off:off+4])
	}
	eAddr, _ := p.Symbol("e")
	if (eAddr-isa.DataBase)%4 != 0 {
		t.Errorf("e not aligned: 0x%x", eAddr)
	}
	wAddr, _ := p.Symbol("w")
	got := binary.BigEndian.Uint32(data[eAddr-isa.DataBase:])
	if got != wAddr {
		t.Errorf("patched word = 0x%x, want 0x%x", got, wAddr)
	}
}

func TestAnnotationsMultiscalar(t *testing.T) {
	src := `
main:
	addi $s0, $s0, 16 !f
	bne  $s0, $s1, main !snt
	syscall !s
	.task main targets=main create=$s0
`
	p := mustAssemble(t, src, ModeMultiscalar)
	if !p.Text[0].Fwd {
		t.Error("forward bit missing")
	}
	if p.Text[1].Stop != isa.StopNotTaken {
		t.Error("stop-not-taken missing")
	}
	if p.Text[2].Stop != isa.StopAlways {
		t.Error("stop-always missing")
	}
	td := p.TaskAt(isa.TextBase)
	if td == nil {
		t.Fatal("task descriptor missing")
	}
	if td.Create != isa.MaskOf(isa.RegS0) {
		t.Errorf("create = %v", td.Create)
	}
	if len(td.Targets) != 1 || td.Targets[0] != isa.TextBase {
		t.Errorf("targets = %v", td.Targets)
	}
}

func TestAnnotationsStrippedInScalarMode(t *testing.T) {
	src := `
main:
	addi $s0, $s0, 16 !f
	bne  $s0, $s1, main !snt
	syscall !s
	.task main targets=main create=$s0
`
	p := mustAssemble(t, src, ModeScalar)
	if p.Text[0].Fwd || p.Text[1].Stop != isa.StopNone || p.Text[2].Stop != isa.StopNone {
		t.Error("annotations not stripped in scalar mode")
	}
	if len(p.Tasks) != 0 {
		t.Error("tasks not stripped in scalar mode")
	}
}

func TestConditionalBuild(t *testing.T) {
	src := `
main:
	li $t0, 1
	.msonly release $t0
	.msonly addi $t1, $t0, 1
	.sconly addi $t2, $t0, 2
	syscall
	.msonly .task main targets=main
`
	ms := mustAssemble(t, src, ModeMultiscalar)
	sc := mustAssemble(t, src, ModeScalar)
	if len(ms.Text) != 4 {
		t.Errorf("ms text = %d instrs", len(ms.Text))
	}
	if len(sc.Text) != 3 {
		t.Errorf("sc text = %d instrs", len(sc.Text))
	}
	if ms.Text[1].Op != isa.OpRelease {
		t.Errorf("ms[1] = %v", ms.Text[1])
	}
	if sc.Text[1].Op != isa.OpAddi || sc.Text[1].Rd != isa.RegT0+2 {
		t.Errorf("sc[1] = %v", sc.Text[1])
	}
	if len(ms.Tasks) != 1 || len(sc.Tasks) != 0 {
		t.Error("task stripping wrong")
	}
}

func TestReleaseExpansion(t *testing.T) {
	src := `
main:
	.msonly release $t0, $s1, $f2
	syscall
	.task main targets=main
`
	p := mustAssemble(t, src, ModeMultiscalar)
	if len(p.Text) != 4 {
		t.Fatalf("text = %d", len(p.Text))
	}
	wantRegs := []isa.Reg{isa.RegT0, isa.RegS0 + 1, isa.F(2)}
	for i, r := range wantRegs {
		if p.Text[i].Op != isa.OpRelease || p.Text[i].Rs != r {
			t.Errorf("release %d = %v, want %v", i, &p.Text[i], r)
		}
	}
}

func TestBranchPseudoExpansion(t *testing.T) {
	src := `
main:
	blt $t0, $t1, main
	bge $t0, $t1, main
	bgt $t0, $t1, main
	ble $t0, $t1, main
	syscall
`
	p := mustAssemble(t, src, ModeScalar)
	if len(p.Text) != 9 {
		t.Fatalf("text = %d", len(p.Text))
	}
	// blt: slt $at,$t0,$t1; bne $at,$zero
	if p.Text[0].Op != isa.OpSlt || p.Text[0].Rs != isa.RegT0 || p.Text[0].Rt != isa.RegT0+1 {
		t.Errorf("blt[0] = %v", &p.Text[0])
	}
	if p.Text[1].Op != isa.OpBne || p.Text[1].Rs != isa.RegAT {
		t.Errorf("blt[1] = %v", &p.Text[1])
	}
	// bge: slt; beq
	if p.Text[3].Op != isa.OpBeq {
		t.Errorf("bge[1] = %v", &p.Text[3])
	}
	// bgt: slt $at,$t1,$t0; bne
	if p.Text[4].Rs != isa.RegT0+1 || p.Text[4].Rt != isa.RegT0 {
		t.Errorf("bgt[0] = %v", &p.Text[4])
	}
	if p.Text[5].Op != isa.OpBne {
		t.Errorf("bgt[1] = %v", &p.Text[5])
	}
}

func TestAnnotationOnPseudoLandsOnLastInstr(t *testing.T) {
	src := `
main:
	blt $t0, $t1, main !st
	syscall
	.task main targets=main
`
	p := mustAssemble(t, src, ModeMultiscalar)
	if p.Text[0].Stop != isa.StopNone {
		t.Error("stop on slt")
	}
	if p.Text[1].Stop != isa.StopTaken {
		t.Error("stop not on branch")
	}
}

func TestTaskDirectiveFull(t *testing.T) {
	src := `
main:
	jal fn !s
cont:
	syscall !s
fn:
	jr $ra !s
	.task main targets=fn pushra=cont create=$ra
	.task fn targets=ret
	.task cont entry=cont targets=cont
`
	p := mustAssemble(t, src, ModeMultiscalar)
	mainTask := p.TaskAt(isa.TextBase)
	if mainTask == nil {
		t.Fatal("no main task")
	}
	contAddr, _ := p.Symbol("cont")
	if mainTask.PushRA != contAddr {
		t.Errorf("PushRA = 0x%x, want 0x%x", mainTask.PushRA, contAddr)
	}
	fnAddr, _ := p.Symbol("fn")
	fnTask := p.TaskAt(fnAddr)
	if fnTask == nil || len(fnTask.Targets) != 1 || fnTask.Targets[0] != isa.TargetReturn {
		t.Fatalf("fn task = %v", fnTask)
	}
	if p.TaskAt(contAddr) == nil {
		t.Error("cont task missing")
	}
}

func TestJalSetsRA(t *testing.T) {
	src := "main:\n\tjal main\n\tsyscall\n"
	p := mustAssemble(t, src, ModeScalar)
	if p.Text[0].Rd != isa.RegRA {
		t.Errorf("jal Rd = %v", p.Text[0].Rd)
	}
	if d := p.Text[0].Dest(); d != isa.RegRA {
		t.Errorf("jal Dest = %v", d)
	}
}

func TestErrors(t *testing.T) {
	cases := map[string]string{
		"unknown mnemonic":   "main:\n\tfoo $t0\n",
		"dup label":          "main:\nmain:\n\tsyscall\n",
		"undefined symbol":   "main:\n\tj nowhere\n",
		"bad reg":            "main:\n\tadd $t0, $q9, $t1\n",
		"release in scalar":  "main:\n\trelease $t0\n\tsyscall\n",
		"instr in data":      ".data\n\tadd $t0, $t0, $t0\n",
		"stop on non-branch": "main:\n\tadd $t0, $t0, $t0 !st\n\tsyscall\n.task main targets=main\n",
		"fwd no dest":        "main:\n\tsw $t0, 0($sp) !f\n\tsyscall\n.task main targets=main\n",
		"trailing comma":     "main:\n\tadd $t0, $t1,\n",
		"dup task":           "main:\n\tsyscall\n.task main targets=main\n.task m2 entry=main targets=main\n",
	}
	for name, src := range cases {
		mode := ModeMultiscalar
		if name == "release in scalar" {
			mode = ModeScalar
		}
		if _, err := Assemble(src, mode); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestComments(t *testing.T) {
	src := `
; full line comment
main:   # another
	li $t0, 1    ; trailing
	li $t1, 2    // c-style
	syscall
`
	p := mustAssemble(t, src, ModeScalar)
	if len(p.Text) != 3 {
		t.Fatalf("text = %d", len(p.Text))
	}
}

func TestGlobalEntry(t *testing.T) {
	src := `
	.global start
other:
	syscall
start:
	syscall
`
	p := mustAssemble(t, src, ModeScalar)
	if p.Entry != isa.TextBase+4 {
		t.Errorf("entry = 0x%x", p.Entry)
	}
}

func TestFPProgram(t *testing.T) {
	src := `
	.data
vals:	.double 1.0, 2.0
	.text
main:
	la    $a0, vals
	l.d   $f0, 0($a0)
	l.d   $f2, 8($a0)
	add.d $f4, $f0, $f2
	c.lt.d $f0, $f2
	bc1t  done
	mul.d $f4, $f4, $f0
done:
	s.d   $f4, 16($a0)
	syscall
`
	p := mustAssemble(t, src, ModeScalar)
	if p.Text[1].Op != isa.OpLdc1 || p.Text[1].Rd != isa.F(0) {
		t.Errorf("l.d = %v", &p.Text[1])
	}
	if p.Text[3].Op != isa.OpAddD || p.Text[3].Rd != isa.F(4) {
		t.Errorf("add.d = %v", &p.Text[3])
	}
	if p.Text[4].Op != isa.OpCLtD || p.Text[4].Rs != isa.F(0) || p.Text[4].Rt != isa.F(2) {
		t.Errorf("c.lt.d = %v", &p.Text[4])
	}
}

func TestMulImmediateExpansion(t *testing.T) {
	src := `
main:
	mul $t0, $t1, 7
	div $t2, $t0, 3
	rem $t3, $t0, 5
	mul $t4, $t1, $t2
	syscall
`
	p := mustAssemble(t, src, ModeScalar)
	if len(p.Text) != 8 {
		t.Fatalf("text = %d instrs, want 8 (3 expansions of 2 + 2)", len(p.Text))
	}
	if p.Text[0].Op != isa.OpOri || p.Text[0].Rd != isa.RegAT || p.Text[0].Imm != 7 {
		t.Errorf("expansion[0] = %v", &p.Text[0])
	}
	if p.Text[1].Op != isa.OpMul || p.Text[1].Rt != isa.RegAT {
		t.Errorf("expansion[1] = %v", &p.Text[1])
	}
	if p.Text[6].Op != isa.OpMul || p.Text[6].Rt != isa.RegT0+2 {
		t.Errorf("plain mul = %v", &p.Text[6])
	}
}

func TestListing(t *testing.T) {
	src := `
main:
	li $s0, 3
	j  loop !s
loop:
	addi $s0, $s0, -1 !f
	bnez $s0, loop !s
end:
	syscall
	.task main targets=loop create=$s0
	.task loop targets=loop,end create=$s0
	.task end
`
	p := mustAssemble(t, src, ModeMultiscalar)
	out := Listing(p)
	for _, want := range []string{"main:", "loop:", "task loop", "create={$s0}",
		"targets=[loop,end]", "!f", "!s", "bne $s0, $zero, loop"} {
		if !strings.Contains(out, want) {
			t.Errorf("listing missing %q:\n%s", want, out)
		}
	}
}

// TestLintPostPass covers the default assembly path: multiscalar builds
// run the annotation-contract linter and hard violations reject the
// build, NoLint opts out, and scalar builds are never checked.
func TestLintPostPass(t *testing.T) {
	// The forward bit sits on a non-last update of $s0 (MS004, an error).
	src := `
main:
	li $s0, 1 !f
	li $s0, 2
	j next !s
next:
	addi $s0, $s0, 0
	li $v0, 10
	li $a0, 0
	syscall
.task main targets=next create=$s0
.task next
`
	if _, err := Assemble(src, ModeMultiscalar); err == nil {
		t.Fatal("Assemble accepted a program with a hard lint error")
	} else if !strings.Contains(err.Error(), "MS004") {
		t.Fatalf("rejection does not name the violated rule: %v", err)
	}

	// The full result still carries the report on rejection, so tools can
	// render every finding.
	res, err := AssembleOpts(src, Options{Mode: ModeMultiscalar})
	if err == nil {
		t.Fatal("AssembleOpts accepted a program with a hard lint error")
	}
	if res == nil || res.Lint == nil || !res.Lint.HasErrors() {
		t.Fatalf("rejection lost the lint report: res=%v", res)
	}

	// NoLint opts out of the gate.
	res, err = AssembleOpts(src, Options{Mode: ModeMultiscalar, NoLint: true})
	if err != nil {
		t.Fatalf("NoLint build rejected: %v", err)
	}
	if res.Lint != nil {
		t.Fatal("NoLint build still ran the linter")
	}

	// Scalar builds strip the annotations; there is no contract to check.
	if _, err := Assemble(src, ModeScalar); err != nil {
		t.Fatalf("scalar build rejected: %v", err)
	}

	// A contract-clean program passes the gate and carries a clean report.
	clean := `
main:
	li $s0, 1 !f
	j next !s
next:
	addi $s0, $s0, 0
	li $v0, 10
	li $a0, 0
	syscall
.task main targets=next create=$s0
.task next
`
	res, err = AssembleOpts(clean, Options{Mode: ModeMultiscalar})
	if err != nil {
		t.Fatalf("clean program rejected: %v", err)
	}
	if res.Lint == nil || len(res.Lint.Diags) != 0 {
		t.Fatalf("clean program carries findings:\n%s", res.Lint)
	}
	// The line table covers every emitted instruction.
	for i := range res.Prog.Text {
		addr := isa.TextBase + uint32(i)*isa.InstrSize
		if res.Lines[addr] == 0 {
			t.Errorf("no source line for instruction at 0x%x", addr)
		}
	}
}
