// Package interp implements the functional (instruction-at-a-time) ISA
// simulator. It serves two roles: it is the correctness oracle every
// timing simulation is checked against, and it is the single home of the
// instruction semantics — the timing pipelines call Exec/LoadValue/
// StoreValue from this package, so functional behaviour cannot diverge
// between simulators.
package interp

import (
	"fmt"
	"math"

	"multiscalar/internal/isa"
)

// Value is the contents of one architectural register: integer registers
// use I, floating-point registers use F. Carrying both in one struct lets
// register files, reorder buffers, and the forwarding ring treat all
// registers uniformly.
type Value struct {
	I uint32
	F float64
}

// IntVal makes an integer register value.
func IntVal(v uint32) Value { return Value{I: v} }

// FPVal makes a floating-point register value.
func FPVal(f float64) Value { return Value{F: f} }

func (v Value) String() string {
	if v.F != 0 {
		return fmt.Sprintf("%g", v.F)
	}
	return fmt.Sprintf("%d", int32(v.I))
}

// clampToInt32 converts a float64 to int32 with saturation, mapping NaN to
// zero, so conversion behaviour is well defined for every input.
func clampToInt32(f float64) int32 {
	switch {
	case math.IsNaN(f):
		return 0
	case f >= math.MaxInt32:
		return math.MaxInt32
	case f <= math.MinInt32:
		return math.MinInt32
	default:
		return int32(f)
	}
}

// ExecResult is the outcome of executing one instruction's computation.
type ExecResult struct {
	Val    Value // destination register value (if the op writes one)
	FCC    bool  // new FP condition flag (if the op sets it)
	SetFCC bool
	Taken  bool // conditional branch outcome
}

// Exec computes the pure (non-memory, non-control-target) semantics of an
// instruction given its source operand values. For conditional branches it
// reports the taken/not-taken outcome. Memory operations and jumps are
// handled by the caller (address computation via EffAddr, link values via
// the pipeline). Exec returns an error for traps (division by zero).
func Exec(op isa.Op, rs, rt Value, imm int32, fcc bool) (ExecResult, error) {
	var r ExecResult
	switch op {
	case isa.OpNop, isa.OpRelease, isa.OpSyscall, isa.OpJ, isa.OpJal, isa.OpJr, isa.OpJalr:
		// No computation here.
	case isa.OpAdd:
		r.Val.I = rs.I + rt.I
	case isa.OpAddi:
		r.Val.I = rs.I + uint32(imm)
	case isa.OpSub:
		r.Val.I = rs.I - rt.I
	case isa.OpMul:
		r.Val.I = uint32(int32(rs.I) * int32(rt.I))
	case isa.OpDiv, isa.OpRem:
		a, b := int32(rs.I), int32(rt.I)
		if b == 0 {
			return r, fmt.Errorf("interp: %s by zero", op)
		}
		if a == math.MinInt32 && b == -1 {
			if op == isa.OpDiv {
				r.Val.I = uint32(a) // wraps, as MIPS does
			} else {
				r.Val.I = 0
			}
		} else if op == isa.OpDiv {
			r.Val.I = uint32(a / b)
		} else {
			r.Val.I = uint32(a % b)
		}
	case isa.OpAnd:
		r.Val.I = rs.I & rt.I
	case isa.OpAndi:
		r.Val.I = rs.I & uint32(imm)
	case isa.OpOr:
		r.Val.I = rs.I | rt.I
	case isa.OpOri:
		r.Val.I = rs.I | uint32(imm)
	case isa.OpXor:
		r.Val.I = rs.I ^ rt.I
	case isa.OpXori:
		r.Val.I = rs.I ^ uint32(imm)
	case isa.OpNor:
		r.Val.I = ^(rs.I | rt.I)
	case isa.OpSll:
		r.Val.I = rs.I << (uint32(imm) & 31)
	case isa.OpSrl:
		r.Val.I = rs.I >> (uint32(imm) & 31)
	case isa.OpSra:
		r.Val.I = uint32(int32(rs.I) >> (uint32(imm) & 31))
	case isa.OpSllv:
		r.Val.I = rs.I << (rt.I & 31)
	case isa.OpSrlv:
		r.Val.I = rs.I >> (rt.I & 31)
	case isa.OpSrav:
		r.Val.I = uint32(int32(rs.I) >> (rt.I & 31))
	case isa.OpSlt:
		if int32(rs.I) < int32(rt.I) {
			r.Val.I = 1
		}
	case isa.OpSltu:
		if rs.I < rt.I {
			r.Val.I = 1
		}
	case isa.OpSlti:
		if int32(rs.I) < imm {
			r.Val.I = 1
		}
	case isa.OpSltiu:
		if rs.I < uint32(imm) {
			r.Val.I = 1
		}
	case isa.OpLui:
		r.Val.I = uint32(imm) << 16

	case isa.OpBeq:
		r.Taken = rs.I == rt.I
	case isa.OpBne:
		r.Taken = rs.I != rt.I
	case isa.OpBlez:
		r.Taken = int32(rs.I) <= 0
	case isa.OpBgtz:
		r.Taken = int32(rs.I) > 0
	case isa.OpBltz:
		r.Taken = int32(rs.I) < 0
	case isa.OpBgez:
		r.Taken = int32(rs.I) >= 0
	case isa.OpBc1t:
		r.Taken = fcc
	case isa.OpBc1f:
		r.Taken = !fcc

	case isa.OpAddS:
		r.Val.F = float64(float32(rs.F) + float32(rt.F))
	case isa.OpSubS:
		r.Val.F = float64(float32(rs.F) - float32(rt.F))
	case isa.OpMulS:
		r.Val.F = float64(float32(rs.F) * float32(rt.F))
	case isa.OpDivS:
		r.Val.F = float64(float32(rs.F) / float32(rt.F))
	case isa.OpAddD:
		r.Val.F = rs.F + rt.F
	case isa.OpSubD:
		r.Val.F = rs.F - rt.F
	case isa.OpMulD:
		r.Val.F = rs.F * rt.F
	case isa.OpDivD:
		r.Val.F = rs.F / rt.F
	case isa.OpNegD:
		r.Val.F = -rs.F
	case isa.OpAbsD:
		r.Val.F = math.Abs(rs.F)
	case isa.OpMovD:
		r.Val.F = rs.F
	case isa.OpSqrtD:
		r.Val.F = math.Sqrt(rs.F)

	case isa.OpCEqD:
		r.FCC, r.SetFCC = rs.F == rt.F, true
	case isa.OpCLtD:
		r.FCC, r.SetFCC = rs.F < rt.F, true
	case isa.OpCLeD:
		r.FCC, r.SetFCC = rs.F <= rt.F, true

	case isa.OpMtc1:
		r.Val.F = float64(int32(rs.I))
	case isa.OpMfc1:
		r.Val.I = uint32(clampToInt32(rs.F))
	case isa.OpCvtDW:
		r.Val.F = rs.F // values are stored converted; see package doc
	case isa.OpCvtWD:
		r.Val.F = float64(clampToInt32(rs.F))
	case isa.OpCvtSD:
		r.Val.F = float64(float32(rs.F))
	case isa.OpCvtDS:
		r.Val.F = rs.F

	case isa.OpLb, isa.OpLbu, isa.OpLh, isa.OpLhu, isa.OpLw,
		isa.OpLwc1, isa.OpLdc1, isa.OpSb, isa.OpSh, isa.OpSw,
		isa.OpSwc1, isa.OpSdc1:
		// Memory ops: address computation is EffAddr; data conversion is
		// LoadValue/StoreValue.
	default:
		return r, fmt.Errorf("interp: unimplemented op %v", op)
	}
	return r, nil
}

// EffAddr returns the effective address of a memory operation.
func EffAddr(rs Value, imm int32) uint32 { return rs.I + uint32(imm) }

// LoadValue converts raw big-endian bytes (as returned by Memory.ReadN
// with the op's MemSize) into a register value.
func LoadValue(op isa.Op, raw uint64) Value {
	switch op {
	case isa.OpLb:
		return IntVal(uint32(int32(int8(raw))))
	case isa.OpLbu:
		return IntVal(uint32(raw & 0xff))
	case isa.OpLh:
		return IntVal(uint32(int32(int16(raw))))
	case isa.OpLhu:
		return IntVal(uint32(raw & 0xffff))
	case isa.OpLw:
		return IntVal(uint32(raw))
	case isa.OpLwc1:
		return FPVal(float64(math.Float32frombits(uint32(raw))))
	case isa.OpLdc1:
		return FPVal(math.Float64frombits(raw))
	default:
		panic(fmt.Sprintf("interp: LoadValue on %v", op))
	}
}

// StoreValue converts a register value into the raw big-endian bytes a
// store writes (low MemSize bytes of the result).
func StoreValue(op isa.Op, v Value) uint64 {
	switch op {
	case isa.OpSb:
		return uint64(v.I & 0xff)
	case isa.OpSh:
		return uint64(v.I & 0xffff)
	case isa.OpSw:
		return uint64(v.I)
	case isa.OpSwc1:
		return uint64(math.Float32bits(float32(v.F)))
	case isa.OpSdc1:
		return math.Float64bits(v.F)
	default:
		panic(fmt.Sprintf("interp: StoreValue on %v", op))
	}
}
