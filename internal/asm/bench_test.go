package asm_test

import (
	"fmt"
	"testing"

	"multiscalar/internal/asm"
	"multiscalar/internal/workloads"
)

var sink *asm.Result

// benchAssemble assembles one generated suite source repeatedly in the
// multiscalar mode (lint included: it is what Spec.Resolve pays).
func benchAssemble(b *testing.B, name string, scale int) {
	src := workloads.Get(name).Source(scale)
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := asm.AssembleOpts(src, asm.Options{Mode: asm.ModeMultiscalar})
		if err != nil {
			b.Fatal(err)
		}
		sink = res
	}
}

// BenchmarkAssembleDataHeavy: the ledger's two sampled_long builds —
// example@14400, 1.4 MB of .word lines, and wc@32768, 2.4 MB of .ascii
// lines — and gcc@51200, 0.8 MB of .word node table: the kinds of
// source a long run builds.
func BenchmarkAssembleDataHeavy(b *testing.B) {
	for _, c := range []struct {
		name  string
		scale int
	}{{"example", 14400}, {"wc", 32768}, {"gcc", 51200}} {
		b.Run(fmt.Sprintf("%s@%d", c.name, c.scale), func(b *testing.B) { benchAssemble(b, c.name, c.scale) })
	}
}

// BenchmarkAssembleTextHeavy: xlisp at its test scale, 71 instruction and
// directive lines to 13 lines of cell table.
func BenchmarkAssembleTextHeavy(b *testing.B) {
	benchAssemble(b, "xlisp", workloads.Get("xlisp").TestScale)
}

// TestAllocationsIndependentOfDataValues: pass 1 allocates per
// instruction line and per buffer doubling, never per data value — four
// times the data values of a source cost under a tenth more allocations.
// The sources cover each way a value is spelled: wc's .ascii lines,
// example's .word table and cmp's .byte buffers.
func TestAllocationsIndependentOfDataValues(t *testing.T) {
	for _, c := range []struct {
		name         string
		small, large int
	}{{"wc", 512, 2048}, {"example", 450, 1800}, {"cmp", 256, 1024}} {
		allocs := func(scale int) float64 {
			src := workloads.Get(c.name).Source(scale)
			return testing.AllocsPerRun(5, func() {
				if _, err := asm.AssembleOpts(src, asm.Options{Mode: asm.ModeMultiscalar}); err != nil {
					t.Fatal(err)
				}
			})
		}
		small, large := allocs(c.small), allocs(c.large)
		if large >= 1.1*small {
			t.Errorf("%s: allocations follow the data: %.0f at scale %d, %.0f at %d", c.name, small, c.small, large, c.large)
		}
	}
}
