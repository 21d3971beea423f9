package workloads

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"multiscalar/internal/asm"
	"multiscalar/internal/core"
	"multiscalar/internal/interp"
	"multiscalar/internal/isa"
)

// runOracle executes a binary on the functional interpreter.
func runOracle(t *testing.T, p *isa.Program) (*interp.Machine, string) {
	t.Helper()
	env := interp.NewSysEnv()
	m := interp.NewMachine(p, env)
	if err := m.Run(500_000_000); err != nil {
		t.Fatalf("oracle: %v", err)
	}
	if env.ExitCode != 0 {
		t.Fatalf("oracle exit code %d", env.ExitCode)
	}
	return m, env.Out.String()
}

// TestWorkloadsEndToEnd: for every workload, the scalar binary and the
// multiscalar binary produce identical program output under the
// interpreter, and the scalar timing machine matches the scalar oracle.
// Each binary holds its data at its real size: Program.Data lives as
// long as the program and carries none of the assembler's append slack
// (compress's test build used to keep 15.5 KB of it). The multiscalar
// machines are judged at every retire by
// core.TestLockstepSweep.
func TestWorkloadsEndToEnd(t *testing.T) {
	for _, name := range Names() {
		w := Get(name)
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			scalarProg, err := w.Build(asm.ModeScalar, w.TestScale)
			if err != nil {
				t.Fatal(err)
			}
			msProg, err := w.Build(asm.ModeMultiscalar, w.TestScale)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range []*isa.Program{scalarProg, msProg} {
				if slack := cap(p.Data) - len(p.Data); slack >= 8<<10 {
					t.Errorf("%d data bytes in a %d-byte buffer", len(p.Data), cap(p.Data))
				}
			}
			som, sout := runOracle(t, scalarProg)
			mom, mout := runOracle(t, msProg)
			if sout != mout {
				t.Fatalf("scalar/multiscalar binaries disagree: %q vs %q", sout, mout)
			}
			if !w.Extra && mom.ICount <= som.ICount {
				// Table 2's direction holds for the paper suite; extras
				// need not carry multiscalar-only instructions.
				t.Errorf("multiscalar ICount %d not greater than scalar %d (Table 2 direction)",
					mom.ICount, som.ICount)
			}

			// Scalar baseline: the one-unit configuration.
			sc, err := core.NewMultiscalar(scalarProg, interp.NewSysEnv(), core.ScalarConfig(1, false))
			if err != nil {
				t.Fatalf("scalar machine: %v", err)
			}
			sres, err := sc.Run()
			if err != nil {
				t.Fatalf("scalar machine: %v", err)
			}
			if sres.Out != sout || sres.Committed != som.ICount {
				t.Fatalf("scalar machine diverged: out=%q committed=%d want %d",
					sres.Out, sres.Committed, som.ICount)
			}
		})
	}
}

// TestASCIISpellingMatchesBytes: a text input written by appendASCII
// assembles to the same data bytes as the same input written as .byte
// values by a table — every byte value, escapes at the edges of a
// 64-byte line, and the generated prose of wc and compress as their
// builds hold it.
func TestASCIISpellingMatchesBytes(t *testing.T) {
	every := make([]byte, 256)
	for i := range every {
		every[i] = byte(i)
	}
	edges := []byte("\"" + strings.Repeat("a", 62) + "\\\n" + strings.Repeat("b;#//!", 10) + "c\"")
	assemble := func(name string, write func([]byte) []byte) []byte {
		src := write([]byte("\t.data\ninput:\n"))
		p, err := asm.Assemble(string(src)+"\t.text\nmain:\n\tsyscall\n", asm.ModeScalar)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return p.Data
	}
	input := func(name string, scale int, label string, n int) []byte {
		p, err := Get(name).Build(asm.ModeScalar, scale)
		if err != nil {
			t.Fatal(err)
		}
		off := p.Symbols[label] - isa.DataBase
		return p.Data[off : off+uint32(n)]
	}
	for name, text := range map[string][]byte{
		"every byte value": every,
		"line edges":       edges,
		"wc prose":         input("wc", 40, "text", 40*64),
		"compress input":   input("compress", 1000, "input", 1000),
	} {
		ascii := assemble(name, func(src []byte) []byte {
			for i, c := range text {
				src = appendASCII(src, i, c)
			}
			return endASCII(src, len(text))
		})
		byteVals := assemble(name, func(src []byte) []byte {
			tb := table{directive: ".byte"}
			for _, c := range text {
				src = tb.put(src, int(c))
			}
			return tb.end(src)
		})
		if !bytes.Equal(ascii, text) || !bytes.Equal(byteVals, text) {
			t.Errorf("%s: .ascii gives %q, .byte gives %q, want %q", name, ascii, byteVals, text)
		}
	}
}

func TestAllWorkloadsRegistered(t *testing.T) {
	want := []string{"compress", "eqntott", "espresso", "gcc", "sc", "xlisp",
		"tomcatv", "cmp", "wc", "example"}
	for _, n := range want {
		if Get(n) == nil {
			t.Errorf("workload %q not registered", n)
		}
	}
	if len(Names()) < len(want) {
		t.Errorf("Names() = %v", Names())
	}
}

func TestPaperNumbersPresent(t *testing.T) {
	for _, w := range All() {
		if w.Extra {
			t.Errorf("%s: extra workload in the paper suite", w.Name)
		}
		if w.Paper.ScalarM == 0 || w.Paper.InOrder1.Speedup8 == 0 {
			t.Errorf("%s: paper reference numbers missing", w.Name)
		}
		if w.TestScale <= 0 || w.DefaultScale <= 0 {
			t.Errorf("%s: scales missing", w.Name)
		}
	}
}

var sourceSink string

// BenchmarkSourceGen: generating the text the assembler reads for the
// ledger's two sampled_long builds — the word table of example@14400
// and the prose of wc@32768 — and for gcc@51200, exact_wide's largest
// word table.
func BenchmarkSourceGen(b *testing.B) {
	for _, c := range []struct {
		name  string
		scale int
	}{{"example", 14400}, {"wc", 32768}, {"gcc", 51200}} {
		w := Get(c.name)
		b.Run(fmt.Sprintf("%s@%d", c.name, c.scale), func(b *testing.B) {
			b.SetBytes(int64(len(w.Source(c.scale))))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sourceSink = w.Source(c.scale)
			}
		})
	}
}
