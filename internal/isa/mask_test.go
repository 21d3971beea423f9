package isa

import (
	"math/bits"
	"testing"
	"testing/quick"
)

func TestMaskBasics(t *testing.T) {
	m := MaskOf(RegA0, RegT0, F(2))
	if n := len(regsOf(m)); n != 3 {
		t.Fatalf("%d registers, want 3", n)
	}
	for _, r := range []Reg{RegA0, RegT0, F(2)} {
		if !m.Has(r) {
			t.Errorf("mask missing %v", r)
		}
	}
	if m.Has(RegA1) {
		t.Error("mask unexpectedly has $a1")
	}
	m = m.Clear(RegT0)
	if m.Has(RegT0) || len(regsOf(m)) != 2 {
		t.Errorf("Clear failed: %v", m)
	}
}

func TestMaskZeroNeverSet(t *testing.T) {
	m := RegMask(0).Set(RegZero)
	if !m.Empty() {
		t.Errorf("Set($zero) produced non-empty mask %v", m)
	}
	m = MaskOf(RegZero, RegA0)
	if m.Has(RegZero) {
		t.Error("mask contains $zero")
	}
	if !m.Has(RegA0) {
		t.Error("mask lost $a0")
	}
}

func TestMaskSetOperations(t *testing.T) {
	a := MaskOf(RegA0, RegA1, RegT0)
	b := MaskOf(RegA1, RegT0+1, F(0))
	u := a.Union(b)
	if n := len(regsOf(u)); n != 5 {
		t.Errorf("union count = %d, want 5: %v", n, u)
	}
	i := a.Intersect(b)
	if i != MaskOf(RegA1) {
		t.Errorf("intersect = %v, want {$a1}", i)
	}
	d := a.Minus(b)
	if d != MaskOf(RegA0, RegT0) {
		t.Errorf("minus = %v, want {$a0,$t0}", d)
	}
}

// regsOf collects the registers ForEach visits, in its order.
func regsOf(m RegMask) []Reg {
	var regs []Reg
	m.ForEach(func(r Reg) { regs = append(regs, r) })
	return regs
}

func TestMaskRegsOrdering(t *testing.T) {
	m := MaskOf(F(31), RegA0, RegRA, Reg(1))
	regs := regsOf(m)
	for i := 1; i < len(regs); i++ {
		if regs[i-1] >= regs[i] {
			t.Fatalf("ForEach not ascending: %v", regs)
		}
	}
	if len(regs) != 4 {
		t.Fatalf("ForEach visited %d registers, want 4", len(regs))
	}
}

func TestMaskString(t *testing.T) {
	if got := MaskOf(RegA0, RegT0).String(); got != "{$a0,$t0}" {
		t.Errorf("String = %q", got)
	}
	if got := RegMask(0).String(); got != "{}" {
		t.Errorf("empty String = %q", got)
	}
}

// Property: ForEach and Has agree, and ForEach visits one register per
// set bit.
func TestMaskRegsHasAgreeProperty(t *testing.T) {
	f := func(v uint64) bool {
		m := RegMask(v &^ 1) // bit 0 ($zero) can never be set via the API
		regs := regsOf(m)
		if len(regs) != bits.OnesCount64(uint64(m)) {
			return false
		}
		seen := map[Reg]bool{}
		for _, r := range regs {
			if !m.Has(r) {
				return false
			}
			seen[r] = true
		}
		for r := Reg(0); r < NumRegs; r++ {
			if m.Has(r) != seen[r] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: union/minus/intersect obey set algebra.
func TestMaskAlgebraProperty(t *testing.T) {
	f := func(a, b uint64) bool {
		x, y := RegMask(a), RegMask(b)
		if x.Union(y) != y.Union(x) {
			return false
		}
		if x.Intersect(y).Union(x.Minus(y)) != x {
			return false
		}
		return x.Minus(y).Intersect(y).Empty()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
