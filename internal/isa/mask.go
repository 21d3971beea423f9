package isa

import (
	"math/bits"
	"strings"
)

// RegMask is a set of architectural registers, one bit per register over
// the combined integer + floating-point name space. Create masks and accum
// masks (Section 2.2) are RegMasks.
type RegMask uint64

// MaskOf builds a mask containing the given registers.
func MaskOf(regs ...Reg) RegMask {
	var m RegMask
	for _, r := range regs {
		m = m.Set(r)
	}
	return m
}

// Set returns m with register r added. Adding $zero is a no-op: $zero is
// never created, forwarded, or reserved.
func (m RegMask) Set(r Reg) RegMask {
	if r == RegZero || !r.Valid() {
		return m
	}
	return m | 1<<uint(r)
}

// Clear returns m with register r removed.
func (m RegMask) Clear(r Reg) RegMask { return m &^ (1 << uint(r)) }

// Has reports whether register r is in the mask.
func (m RegMask) Has(r Reg) bool { return m&(1<<uint(r)) != 0 }

// Union returns the union of the two masks.
func (m RegMask) Union(o RegMask) RegMask { return m | o }

// Intersect returns the intersection of the two masks.
func (m RegMask) Intersect(o RegMask) RegMask { return m & o }

// Minus returns the registers in m that are not in o.
func (m RegMask) Minus(o RegMask) RegMask { return m &^ o }

// Empty reports whether the mask contains no registers.
func (m RegMask) Empty() bool { return m == 0 }

// ForEach calls f for each register in the mask in ascending order.
func (m RegMask) ForEach(f func(Reg)) {
	for v := uint64(m); v != 0; v &= v - 1 {
		f(Reg(bits.TrailingZeros64(v)))
	}
}

// String renders the mask as a comma-separated register list, e.g.
// "{$a0,$t0,$s1}".
func (m RegMask) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	m.ForEach(func(r Reg) {
		if !first {
			b.WriteByte(',')
		}
		first = false
		b.WriteString(r.String())
	})
	b.WriteByte('}')
	return b.String()
}
