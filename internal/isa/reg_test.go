package isa

import (
	"testing"
	"testing/quick"
)

func TestParseRegConventionalNames(t *testing.T) {
	cases := map[string]Reg{
		"$zero": RegZero, "$at": RegAT, "$v0": RegV0, "$v1": RegV1,
		"$a0": RegA0, "$a3": RegA3, "$t0": RegT0, "$t7": RegT7,
		"$t8": RegT8, "$t9": RegT9, "$s0": RegS0, "$s7": RegS7,
		"$gp": RegGP, "$sp": RegSP, "$fp": RegFP, "$ra": RegRA,
	}
	for name, want := range cases {
		got, err := ParseReg(name)
		if err != nil {
			t.Fatalf("ParseReg(%q): %v", name, err)
		}
		if got != want {
			t.Errorf("ParseReg(%q) = %v, want %v", name, got, want)
		}
	}
}

func TestParseRegNumeric(t *testing.T) {
	for n := 0; n < NumIntRegs; n++ {
		name := "$" + itoa(n)
		got, err := ParseReg(name)
		if err != nil {
			t.Fatalf("ParseReg(%q): %v", name, err)
		}
		if got != Reg(n) {
			t.Errorf("ParseReg(%q) = %v, want %d", name, got, n)
		}
	}
}

func TestParseRegFP(t *testing.T) {
	for n := 0; n < NumFPRegs; n++ {
		name := "$f" + itoa(n)
		got, err := ParseReg(name)
		if err != nil {
			t.Fatalf("ParseReg(%q): %v", name, err)
		}
		if got != F(n) {
			t.Errorf("ParseReg(%q) = %v, want $f%d", name, got, n)
		}
		if got < NumIntRegs {
			t.Errorf("%v numbered among the integer registers", got)
		}
	}
}

func TestParseRegErrors(t *testing.T) {
	for _, name := range []string{"", "$", "zero", "$32", "$f32", "$q3", "$-1", "$f", "$99"} {
		if r, err := ParseReg(name); err == nil {
			t.Errorf("ParseReg(%q) = %v, want error", name, r)
		}
	}
}

func TestRegStringRoundTrip(t *testing.T) {
	for r := Reg(0); r < NumRegs; r++ {
		back, err := ParseReg(r.String())
		if err != nil {
			t.Fatalf("ParseReg(%v.String()): %v", r, err)
		}
		if back != r {
			t.Errorf("round trip %v -> %q -> %v", r, r.String(), back)
		}
	}
}

func TestRegStringRoundTripProperty(t *testing.T) {
	f := func(n uint8) bool {
		r := Reg(n % NumRegs)
		back, err := ParseReg(r.String())
		return err == nil && back == r
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [4]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
