package sample

import (
	"bytes"
	"testing"

	"multiscalar/internal/asm"
	"multiscalar/internal/core"
	"multiscalar/internal/interp"
	"multiscalar/internal/isa"
	"multiscalar/internal/workloads"
)

// perInstr is the warming pass of a program without descriptors as it
// was before runs: every retired instruction is fetched and, if it is a
// conditional branch or a jalr, trains the branch predictor
// (PredictTaken + UpdateTaken, the last-target table); every load and
// store touches the D-cache; nothing is filtered.
type perInstr struct{ ws *core.WarmState }

func (r perInstr) Mem(addr uint32, store bool) { r.ws.DCache.Touch(addr) }
func (r perInstr) Retire(pc, next uint32)      {}

func (r perInstr) step(m *interp.Machine) error {
	pc := m.PC
	in := m.Prog.InstrAt(pc)
	if err := m.Step(); err != nil {
		return err
	}
	r.ws.ICache.Touch(pc)
	taken := m.PC != pc+isa.InstrSize
	switch {
	case in.Op.IsBranch():
		r.ws.Branch.UpdateTaken(pc, taken, r.ws.Branch.PredictTaken(pc))
	case in.Op == isa.OpJalr:
		r.ws.Branch.UpdateIndirect(pc, m.PC)
	}
	return nil
}

// TestScalarCapturesMatchPerInstruction: a program without descriptors
// is captured at exact instruction counts, between run ends. Every
// capture of a dense schedule, from the cold start on, must be byte for
// byte the warm state of a pass that fetched and trained at every
// instruction — so the open run is fetched before the capture, and a
// run's fetches and branch training add up to the instructions'.
func TestScalarCapturesMatchPerInstruction(t *testing.T) {
	cfg := core.ScalarConfig(2, true)
	prm := Params{WarmupInstrs: 1, WindowInstrs: 1, PeriodInstrs: 97, OffsetInstrs: 1}
	for _, name := range []string{"wc", "tomcatv"} {
		wl := workloads.Get(name)
		p, err := wl.Build(asm.ModeScalar, wl.TestScale)
		if err != nil {
			t.Fatal(err)
		}
		ref := interp.NewMachine(p, newEnv(nil))
		if err := ref.Run(1 << 30); err != nil {
			t.Fatal(err)
		}
		sched := prm.schedule(ref.ICount)
		win := &windows{feed: make(chan capture, len(sched))}
		w := newWarmer(p, cfg, nil, sched, win)
		if err := w.pass(1 << 30); err != nil {
			t.Fatal(err)
		}
		close(win.feed)
		if w.k != len(sched) {
			t.Fatalf("%s: %d captures for %d schedule points", name, w.k, len(sched))
		}

		m := interp.NewMachine(p, newEnv(nil))
		r := perInstr{core.NewWarmState(p, cfg)}
		r.ws.Env, r.ws.Mem = m.Env, m.Mem
		m.Warm = r
		for c := range win.feed {
			for m.ICount < sched[c.k] {
				if err := r.step(m); err != nil {
					t.Fatal(err)
				}
			}
			r.ws.PC, r.ws.FCC, r.ws.ICount, r.ws.Regs = m.PC, m.FCC, m.ICount, m.Regs
			if !bytes.Equal(r.ws.Encode(), c.snap) {
				t.Fatalf("%s: capture %d, at %d instructions, differs from the per-instruction pass", name, c.k, sched[c.k])
			}
		}
	}
}

// BenchmarkWarmingPass times the functional warming pass alone — the
// interpreter with the sampler's warmer attached and no window
// scheduled — on the two programs of the benchmark ledger's sampled
// workload: example at scale 14400 and wc at 32768, warm state shaped
// for 8 units 2-way out-of-order. The mips metric is retired
// instructions per second.
func BenchmarkWarmingPass(b *testing.B) {
	cfg := core.DefaultConfig(8, 2, true)
	for _, run := range []struct {
		name  string
		scale int
	}{{"example", 14400}, {"wc", 32768}} {
		b.Run(run.name, func(b *testing.B) {
			p, err := workloads.Get(run.name).Build(asm.ModeMultiscalar, run.scale)
			if err != nil {
				b.Fatal(err)
			}
			var instrs uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w := newWarmer(p, cfg, nil, nil, nil)
				if err := w.pass(1 << 40); err != nil || w.err != nil {
					b.Fatal(err, w.err)
				}
				instrs += w.m.ICount
			}
			b.ReportMetric(float64(instrs)/b.Elapsed().Seconds()/1e6, "mips")
		})
	}
}
