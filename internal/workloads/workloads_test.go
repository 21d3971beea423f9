package workloads

import (
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

// TestWorkloadsEndToEnd is the master validation: for every workload, the
// scalar binary and the multiscalar binary produce identical program
// output under the interpreter; the scalar timing machine matches the
// scalar oracle; the multiscalar machine (4 and 8 units) matches the
// multiscalar oracle in output and committed instruction count.
func TestWorkloadsEndToEnd(t *testing.T) {
	for _, w := range AllWithExtras() {
		w := w
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

			// Multiscalar machines.
			for _, units := range []int{4, 8} {
				env := interp.NewSysEnv()
				cfg := core.DefaultConfig(units, 1, false)
				cfg.MaxCycles = 500_000_000
				m, err := core.NewMultiscalar(msProg, env, cfg)
				if err != nil {
					t.Fatalf("units=%d: %v", units, err)
				}
				res, err := m.Run()
				if err != nil {
					t.Fatalf("units=%d run: %v", units, err)
				}
				if res.Out != mout {
					t.Fatalf("units=%d out = %q, want %q", units, res.Out, mout)
				}
				if res.Committed != mom.ICount {
					t.Fatalf("units=%d committed = %d, want %d", units, res.Committed, mom.ICount)
				}
				t.Logf("units=%d cycles=%d scalarCycles=%d speedup=%.2f pred=%.1f%% squash(ctl=%d,mem=%d)",
					units, res.Cycles, sres.Cycles, float64(sres.Cycles)/float64(res.Cycles),
					100*res.PredAccuracy(), res.CtlSquashes, res.MemSquashes)
			}
		})
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

// BenchmarkSourceGen: generating the text the assembler reads, for the
// byte-table (wc) and word-table (example) workloads at 32x table scale.
func BenchmarkSourceGen(b *testing.B) {
	for _, name := range []string{"wc", "example"} {
		w := Get(name)
		scale := w.DefaultScale * 32
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(len(w.Source(scale))))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sourceSink = w.Source(scale)
			}
		})
	}
}
