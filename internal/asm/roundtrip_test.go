package asm

import (
	"os"
	"strings"
	"testing"

	"multiscalar/internal/isa"
)

// roundTripWords is the length of the program an instruction under test
// heads: its target may name any of these words.
const roundTripWords = 16

// canonical builds the instruction the fields describe the way the
// assembler can produce it: registers in range, the target inside a
// roundTripWords program, and every field the operation's form does not
// name left at its default.
func canonical(op isa.Op, rd, rs, rt uint8, imm int32, target uint32, fwd bool, stop uint8) isa.Instr {
	in := isa.Instr{Op: op, Rd: op.DefaultRd(), Fwd: fwd, Stop: isa.StopCond(stop % 4)}
	for _, s := range op.Form() {
		switch s {
		case isa.SlotRd:
			in.Rd = isa.Reg(rd % isa.NumRegs)
		case isa.SlotRs:
			in.Rs = isa.Reg(rs % isa.NumRegs)
		case isa.SlotRt:
			in.Rt = isa.Reg(rt % isa.NumRegs)
		case isa.SlotImm:
			in.Imm = imm
		case isa.SlotMem:
			in.Rs, in.Imm = isa.Reg(rs%isa.NumRegs), imm
		case isa.SlotTarget:
			in.Target = isa.TextBase + target%roundTripWords*isa.InstrSize
		}
	}
	return in
}

// checkRoundTrip assembles in's disassembly. What the assembler accepts
// must be in again; it must refuse exactly the annotations that mean
// nothing on in (a forward bit without a destination, a conditional stop
// on something that is not a conditional branch).
func checkRoundTrip(t *testing.T, in isa.Instr) {
	t.Helper()
	src := "main:\n\t" + in.String() + strings.Repeat("\n\tnop", roundTripWords-1) + "\n"
	res, err := AssembleOpts(src, Options{Mode: ModeMultiscalar, NoLint: true})
	valid := (!in.Fwd || in.Dest() != isa.RegZero) &&
		(in.Stop == isa.StopNone || in.Stop == isa.StopAlways || in.Op.IsBranch())
	switch {
	case !valid && err == nil:
		t.Errorf("%q assembled", in.String())
	case valid && err != nil:
		t.Errorf("%q: %v", in.String(), err)
	case valid && res.Prog.Text[0] != in:
		t.Errorf("%q assembled to %+v, want %+v", in.String(), res.Prog.Text[0], in)
	}
}

// validOps lists every defined opcode.
func validOps() []isa.Op {
	var ops []isa.Op
	for n := 0; n < 256; n++ {
		if op := isa.Op(n); op.Valid() {
			ops = append(ops, op)
		}
	}
	return ops
}

// TestDisassemblyAssembles: for every opcode, plain and with each
// annotation suffix, the assembler reads back what Instr.String prints.
// Both walk the operation's slot list, so they cannot disagree on a form.
func TestDisassemblyAssembles(t *testing.T) {
	for _, op := range validOps() {
		for _, fwd := range []bool{false, true} {
			for stop := uint8(0); stop < 4; stop++ {
				checkRoundTrip(t, canonical(op, 9, 10, 43, -12, 3, fwd, stop))
			}
		}
		checkRoundTrip(t, canonical(op, 0, 31, 32, -1<<31, 0, false, 0))
	}
}

// FuzzAsmRoundTrip is TestDisassemblyAssembles over arbitrary field
// values. Run with `go test -fuzz FuzzAsmRoundTrip ./internal/asm`.
func FuzzAsmRoundTrip(f *testing.F) {
	for _, op := range validOps() {
		f.Add(uint8(op), uint8(9), uint8(10), uint8(43), int32(-12), uint32(3), false, uint8(0))
		f.Add(uint8(op), uint8(0), uint8(63), uint8(1), int32(1<<31-1), uint32(15), true, uint8(op)%4)
	}
	f.Fuzz(func(t *testing.T, op, rd, rs, rt uint8, imm int32, target uint32, fwd bool, stop uint8) {
		if !isa.Op(op).Valid() {
			t.Skip()
		}
		checkRoundTrip(t, canonical(isa.Op(op), rd, rs, rt, imm, target, fwd, stop))
	})
}

// TestAssemblyDocMatchesOpTable holds docs/assembly.md's instruction
// tables to the op table and the pseudo-op table: every mnemonic the
// assembler accepts is documented with the operand form it is parsed by,
// and nothing is documented that it does not accept.
func TestAssemblyDocMatchesOpTable(t *testing.T) {
	raw, err := os.ReadFile("../../docs/assembly.md")
	if err != nil {
		t.Fatal(err)
	}
	_, doc, ok := strings.Cut(string(raw), "\n## Instructions\n")
	if !ok {
		t.Fatal("docs/assembly.md has no Instructions section")
	}
	doc, _, _ = strings.Cut(doc, "\n## ")

	slotNames := map[isa.Slot]string{
		isa.SlotRd: "rd", isa.SlotRs: "rs", isa.SlotRt: "rt",
		isa.SlotImm: "imm", isa.SlotMem: "off(rs)", isa.SlotTarget: "target",
	}
	want := map[string]string{} // mnemonic -> operand column
	render := func(form []isa.Slot) string {
		var names []string
		for _, s := range form {
			names = append(names, slotNames[s])
		}
		return strings.Join(names, ", ")
	}
	for _, op := range validOps() {
		want[op.String()] = render(op.Form())
	}
	for mn, p := range pseudoOps {
		want[mn] = render(p.form)
	}
	for _, mn := range []string{"blt", "bge", "bgt", "ble"} {
		want[mn] = render(isa.OpBeq.Form())
	}

	for _, line := range strings.Split(doc, "\n") {
		cols := strings.Split(line, "|")
		if len(cols) < 4 || !strings.HasPrefix(strings.TrimSpace(cols[1]), "`") {
			continue
		}
		operands := strings.Trim(strings.TrimSpace(cols[2]), "`")
		for _, mn := range strings.Fields(strings.Trim(strings.TrimSpace(cols[1]), "`")) {
			form, known := want[mn]
			switch {
			case !known:
				t.Errorf("docs/assembly.md lists %q (again, or the assembler does not know it)", mn)
			case form != operands:
				t.Errorf("docs/assembly.md gives %s the operands %q, the tables say %q", mn, operands, form)
			}
			delete(want, mn)
		}
	}
	for mn := range want {
		t.Errorf("docs/assembly.md does not list %s", mn)
	}
}
