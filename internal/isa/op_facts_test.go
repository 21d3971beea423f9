package isa

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

// primeLatencies gives every Latencies field a distinct value, so the
// recording pins which field each opcode reads, not only Table 1's number.
var primeLatencies = Latencies{
	IntAddSub: 2, ShiftLogic: 3, IntMul: 5, IntDiv: 7,
	Branch: 17, SPAddSub: 19, SPMul: 23, SPDiv: 29, DPAddSub: 31, DPMul: 37, DPDiv: 41,
}

// opFactsText renders every static fact the package's queries report about
// every valid opcode, one block per opcode, using a probe instruction
// whose register fields, immediate and target are all distinct.
func opFactsText() string {
	var b strings.Builder
	for n := 0; n < 256; n++ {
		op := Op(n)
		if !op.Valid() {
			continue
		}
		flags := ""
		for _, f := range []struct {
			on   bool
			name string
		}{
			{op.has(flagLoad), "load"}, {op.has(flagStore), "store"}, {op.IsMem(), "mem"},
			{op.IsBranch(), "branch"}, {op.IsJump(), "jump"}, {op.IsControl(), "control"},
			{op.has(flagImm), "imm"}, {op.SetsFCC(), "setsfcc"},
		} {
			if f.on {
				flags += " " + f.name
			}
		}
		fmt.Fprintf(&b, "op %d %s class=%s width=%d flags:%s\n", n, op, op.Class(), op.MemSize(), flags)

		in := Instr{Op: op, Rd: RegT0 + 1, Rs: RegT0 + 2, Rt: RegT0 + 3, Imm: -12, Target: 0x400040}
		srcs := make([]string, 0, 5)
		for _, r := range in.Sources() {
			srcs = append(srcs, r.String())
		}
		fmt.Fprintf(&b, "  %s dest=%s readsfcc=%v\n", op, in.Dest(), in.ReadsFCC())
		fmt.Fprintf(&b, "  %s srcs=%s\n", op, strings.Join(srcs, ","))
		fmt.Fprintf(&b, "  %s text: %s\n", op, in.String())
		in.Fwd = true
		fmt.Fprintf(&b, "  %s text: %s\n", op, in.String())
		in.Fwd = false
		for _, s := range []StopCond{StopAlways, StopTaken, StopNotTaken} {
			in.Stop = s
			fmt.Fprintf(&b, "  %s text: %s\n", op, in.String())
		}
		fmt.Fprintf(&b, "  %s latency table1=%d primes=%d\n", op, Table1().Of(op), primeLatencies.Of(op))
	}
	return b.String()
}

// phantomRt names the ten one-source operations that, at the commit the
// recording was made, reported their unused Rt field as a second source.
// They are the only lines of the recording allowed to differ, and each
// must differ in exactly that way.
var phantomRt = map[Op]bool{
	OpNegD: true, OpAbsD: true, OpMovD: true, OpSqrtD: true, OpMtc1: true,
	OpMfc1: true, OpCvtDW: true, OpCvtWD: true, OpCvtSD: true, OpCvtDS: true,
}

// TestOpFactsPinned compares what the op table answers with a recording
// of what the hand-kept switches answered at the commit before they were
// deleted (testdata/op_facts.txt).
func TestOpFactsPinned(t *testing.T) {
	rec, err := os.ReadFile("testdata/op_facts.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(string(rec), "\n")
	got := strings.Split(opFactsText(), "\n")
	if len(got) != len(want) {
		t.Fatalf("%d lines of facts, %d recorded", len(got), len(want))
	}
	fixed := 0
	for i := range got {
		if got[i] == want[i] {
			continue
		}
		name, _, _ := strings.Cut(strings.TrimSpace(got[i]), " ")
		op, _ := OpByName(name)
		if phantomRt[op] && want[i] == got[i]+",$t3" && strings.Contains(got[i], " srcs=") {
			fixed++
			continue
		}
		t.Errorf("op fact moved\n got %s\nwant %s", got[i], want[i])
	}
	if fixed != len(phantomRt) {
		t.Errorf("%d phantom Rt sources removed, want %d", fixed, len(phantomRt))
	}
}

// TestOpTableComplete: a row says everything, and says it consistently.
// An opcode added without a form or a latency class fails here instead of
// silently writing Rd and taking one cycle.
func TestOpTableComplete(t *testing.T) {
	has := func(form []Slot, want Slot) bool {
		for _, s := range form {
			if s == want {
				return true
			}
		}
		return false
	}
	seen := map[string]Op{}
	for op := Op(0); op < numOps; op++ {
		in := &opInfos[op]
		if in.name == "" {
			t.Errorf("opcode %d has no row", op)
			continue
		}
		if prev, dup := seen[in.name]; dup {
			t.Errorf("%d and %d are both named %q", prev, op, in.name)
		}
		seen[in.name] = op
		if got, ok := OpByName(in.name); !ok || got != op {
			t.Errorf("OpByName(%q) = %d, %v; want %d", in.name, got, ok, op)
		}
		if in.form == nil {
			t.Errorf("%s has no operand form", op)
		}
		if in.lat == 0 {
			t.Errorf("%s has no latency class", op)
		}

		form := in.form
		if len(form) > 3 {
			t.Errorf("%s has %d operand slots", op, len(form))
		}
		for k, s := range form {
			if s < SlotRd || s > SlotTarget || has(form[:k], s) {
				t.Errorf("%s: bad or repeated slot %d", op, s)
			}
		}
		if has(form, SlotMem) && (has(form, SlotRs) || has(form, SlotImm)) {
			t.Errorf("%s: off(rs) beside its own rs or imm", op)
		}
		// Sources are the first NumSources of Rs, Rt: whoever reads Rt
		// reads Rs too.
		if has(form, SlotRt) && !has(form, SlotRs) && !has(form, SlotMem) {
			t.Errorf("%s reads rt but not rs", op)
		}
		if n := op.NumSources() + len(in.uses); n > 5 {
			t.Errorf("%s reads %d registers, SourceRegs holds 5", op, n)
		}
		if in.load && (len(form) != 2 || form[0] != SlotRd || form[1] != SlotMem) {
			t.Errorf("load %s is not rd, off(rs)", op)
		}
		if in.store && (len(form) != 2 || form[0] != SlotRt || form[1] != SlotMem) {
			t.Errorf("store %s is not rt, off(rs)", op)
		}
		if (in.load || in.store) != (in.memSize != 0) || (in.load || in.store) != (in.class == FUMemory) {
			t.Errorf("%s: load/store bits, width %d and class %s disagree", op, in.memSize, in.class)
		}
		if op.has(flagImm) != (has(form, SlotImm) || has(form, SlotMem)) {
			t.Errorf("%s: imm flag %v", op, op.has(flagImm))
		}
		if op.HasTarget() != has(form, SlotTarget) || op.HasTarget() && !op.IsControl() {
			t.Errorf("%s: HasTarget %v", op, op.HasTarget())
		}
		if op.IsControl() != (in.class == FUBranch) || in.branch && in.jump {
			t.Errorf("%s: branch/jump bits and class %s disagree", op, in.class)
		}
		if op.WritesRd() != (has(form, SlotRd) || in.defaultRd != RegZero) {
			t.Errorf("%s: WritesRd %v", op, op.WritesRd())
		}
		if twin, ok := op.ImmForm(); ok {
			if len(form) != 3 || form[2] != SlotRt || len(twin.Form()) != 3 || twin.Form()[2] != SlotImm {
				t.Errorf("%s -> %s is not rd, rs, rt -> rd, rs, imm", op, twin)
			}
		}
	}
	if Op(numOps).Valid() {
		t.Error("the sentinel is a valid opcode")
	}
}
