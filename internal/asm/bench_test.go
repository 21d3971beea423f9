package asm_test

import (
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

// BenchmarkAssembleDataHeavy: wc at 32x table scale, 2.6 MB of source of
// which all but 4 KB is .byte lines — what a long sampled run builds.
func BenchmarkAssembleDataHeavy(b *testing.B) { benchAssemble(b, "wc", 8192) }

// BenchmarkAssembleTextHeavy: xlisp at its test scale, 71 instruction and
// directive lines to 13 lines of cell table.
func BenchmarkAssembleTextHeavy(b *testing.B) {
	benchAssemble(b, "xlisp", workloads.Get("xlisp").TestScale)
}

// TestAllocationsIndependentOfDataValues: pass 1 allocates per
// instruction line and per buffer doubling, never per data value — four
// times the .byte values of a source cost under a tenth more allocations.
func TestAllocationsIndependentOfDataValues(t *testing.T) {
	allocs := func(scale int) float64 {
		src := workloads.Get("wc").Source(scale)
		return testing.AllocsPerRun(5, func() {
			if _, err := asm.AssembleOpts(src, asm.Options{Mode: asm.ModeMultiscalar}); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(512), allocs(2048)
	if large >= 1.1*small {
		t.Errorf("allocations follow the data: %.0f at 32768 values, %.0f at 131072", small, large)
	}
}
