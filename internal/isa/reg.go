// Package isa defines the MIPS-like instruction set architecture used by the
// multiscalar toolchain and simulators, including the multiscalar-specific
// program annotations described in Section 2.2 of the paper: task
// descriptors with create masks, forward bits, stop bits, and release
// instructions.
//
// The register file shape, big-endian 32-bit memory model, and absence of
// delay slots mirror the binaries the paper's simulator accepted. The one
// deliberate deviation (documented in DESIGN.md) is 3-operand multiply and
// divide in place of HI/LO.
package isa

import "fmt"

// Reg names a register. Values 0-31 are the integer registers $0-$31
// (with $0 hardwired to zero); values 32-63 are the floating-point
// registers $f0-$f31.
type Reg uint8

// Register file dimensions.
const (
	NumIntRegs = 32
	NumFPRegs  = 32
	NumRegs    = NumIntRegs + NumFPRegs
)

// F returns the Reg for floating-point register $f<n>.
func F(n int) Reg { return Reg(NumIntRegs + n) }

// Conventional MIPS integer register roles, used by the assembler, the
// syscall interface, and the calling convention of the workload programs.
const (
	RegZero Reg = 0 // hardwired zero
	RegAT   Reg = 1 // assembler temporary
	RegV0   Reg = 2 // return value / syscall code
	RegV1   Reg = 3 // second return value
	RegA0   Reg = 4 // first argument
	RegA1   Reg = 5
	RegA2   Reg = 6
	RegA3   Reg = 7
	RegT0   Reg = 8
	RegT7   Reg = 15
	RegS0   Reg = 16
	RegS7   Reg = 23
	RegT8   Reg = 24
	RegT9   Reg = 25
	RegGP   Reg = 28 // global pointer
	RegSP   Reg = 29 // stack pointer
	RegFP   Reg = 30 // frame pointer
	RegRA   Reg = 31 // return address
)

// Valid reports whether r names an architectural register.
func (r Reg) Valid() bool { return r < NumRegs }

var intRegNames = [NumIntRegs]string{
	"$zero", "$at", "$v0", "$v1", "$a0", "$a1", "$a2", "$a3",
	"$t0", "$t1", "$t2", "$t3", "$t4", "$t5", "$t6", "$t7",
	"$s0", "$s1", "$s2", "$s3", "$s4", "$s5", "$s6", "$s7",
	"$t8", "$t9", "$k0", "$k1", "$gp", "$sp", "$fp", "$ra",
}

// String returns the conventional assembly name of the register
// ($t0, $sp, $f12, ...).
func (r Reg) String() string {
	switch {
	case r < NumIntRegs:
		return intRegNames[r]
	case r < NumRegs:
		return fmt.Sprintf("$f%d", int(r)-NumIntRegs)
	default:
		return fmt.Sprintf("$bad%d", int(r))
	}
}

// ParseReg parses a register name: numeric ($0-$31), conventional ($t0,
// $sp, ...), or floating point ($f0-$f31).
func ParseReg(name string) (Reg, error) {
	if len(name) < 2 || name[0] != '$' {
		return 0, fmt.Errorf("isa: %q is not a register name", name)
	}
	body := name[1:]
	if body[0] == 'f' && len(body) > 1 && body[1] >= '0' && body[1] <= '9' {
		n, err := parseUint(body[1:], NumFPRegs)
		if err != nil {
			return 0, fmt.Errorf("isa: bad FP register %q", name)
		}
		return F(n), nil
	}
	if body[0] >= '0' && body[0] <= '9' {
		n, err := parseUint(body, NumIntRegs)
		if err != nil {
			return 0, fmt.Errorf("isa: bad register %q", name)
		}
		return Reg(n), nil
	}
	for i, s := range intRegNames {
		if s[1:] == body {
			return Reg(i), nil
		}
	}
	return 0, fmt.Errorf("isa: unknown register %q", name)
}

func parseUint(s string, limit int) (int, error) {
	n := 0
	for _, c := range s {
		if c < '0' || c > '9' {
			return 0, fmt.Errorf("not a number")
		}
		n = n*10 + int(c-'0')
		if n >= limit {
			return 0, fmt.Errorf("out of range")
		}
	}
	if s == "" {
		return 0, fmt.Errorf("empty")
	}
	return n, nil
}
