package sample

import (
	"math/rand"
	"reflect"
	"testing"

	"multiscalar/internal/asm"
	"multiscalar/internal/core"
	"multiscalar/internal/interp"
	"multiscalar/internal/isa"
	"multiscalar/internal/workloads"
)

// perInstr is the warming pass as it was before runs, written in its
// plainest form: every retired instruction is fetched and, if it is a
// conditional branch or a jalr, trains the branch predictor
// (PredictTaken + UpdateTaken, the last-target table); every load and
// store touches the D-cache; nothing is filtered. In a program with
// descriptors every task exit is replayed as the sequencer's committed
// path sees it (exit).
type perInstr struct {
	ws  *core.WarmState
	cur *isa.TaskDescriptor // the task being executed; nil without descriptors
}

func (r *perInstr) Mem(addr uint32, store bool) { r.ws.DCache.Touch(addr) }
func (r *perInstr) Retire(pc, next uint32)      {}

func (r *perInstr) step(m *interp.Machine) error {
	pc := m.PC
	in := m.Prog.InstrAt(pc)
	if err := m.RunTo(m.ICount + 1); err != nil {
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
	if r.cur != nil && in.Stop.Holds(taken) {
		r.exit(m.Prog, m.PC, in.Op == isa.OpJr)
	}
	return nil
}

// exit replays a task exit to next: a task with a choice of successors
// predicts and is trained on the target it took, a return pops the
// return stack and a call pushes its return address, and the next
// task's descriptor is fetched.
func (r *perInstr) exit(p *isa.Program, next uint32, byRet bool) {
	desc := r.cur
	if len(desc.Targets) > 0 {
		idx := desc.TargetIndex(next)
		if byRet {
			idx = desc.TargetIndex(isa.TargetReturn)
		}
		if len(desc.Targets) > 1 {
			hist := r.ws.TaskPred.History(desc.Entry)
			predicted := r.ws.TaskPred.Predict(desc.Entry) % len(desc.Targets)
			r.ws.TaskPred.UpdateWith(hist, desc.Entry, idx, predicted)
		}
		switch {
		case desc.Targets[idx] == isa.TargetReturn:
			r.ws.RAS.Pop()
		case desc.PushRA != 0 && desc.Targets[idx] == desc.CallTarget:
			r.ws.RAS.Push(desc.PushRA)
		}
	}
	r.ws.DescCache.Touch(next)
	r.cur = p.TaskAt(next)
}

// matchPerInstruction captures p under cfg at the points of a dense
// schedule and holds every capture, from the cold start on, equal to the
// warm state of a perInstr pass at the same instruction boundary.
func matchPerInstruction(t *testing.T, name string, p *isa.Program, cfg core.Config) {
	t.Helper()
	prm := Params{WarmupInstrs: 1, WindowInstrs: 1, PeriodInstrs: 97, OffsetInstrs: 1}
	ref := interp.NewMachine(p, interp.NewSysEnv())
	if err := ref.Run(1 << 30); err != nil {
		t.Fatal(err)
	}
	sched := prm.schedule(ref.ICount)
	cs := captures(t, p, cfg, sched)
	if len(cs) < len(sched)-1 || len(p.Tasks) == 0 && len(cs) != len(sched) {
		t.Fatalf("%s: %d captures for %d schedule points", name, len(cs), len(sched))
	}
	m := interp.NewMachine(p, interp.NewSysEnv())
	r := &perInstr{ws: core.NewWarmState(p, cfg), cur: p.TaskAt(p.Entry)}
	m.Warm = r
	for k, c := range cs {
		for m.ICount < c.ICount {
			if err := r.step(m); err != nil {
				t.Fatal(err)
			}
		}
		if what := captureDiff(r.ws.Capture(m, m.PC, m.ICount, nil), c); what != "" {
			t.Fatalf("%s: capture %d, at %d instructions: %s not as in the per-instruction pass", name, k, c.ICount, what)
		}
	}
}

// captures runs the warming pass over p to its end, capturing at the
// points of sched, and returns the captures in order. A program with
// descriptors has none for a point after its last task boundary.
func captures(t *testing.T, p *isa.Program, cfg core.Config, sched []uint64) []*core.WarmState {
	t.Helper()
	win := &windows{feed: make(chan capture, len(sched))}
	w := newWarmer(p, cfg, nil, sched, win)
	if err := w.pass(1 << 30); err != nil || w.err != nil {
		t.Fatal(err, w.err)
	}
	close(win.feed)
	var cs []*core.WarmState
	for c := range win.feed {
		cs = append(cs, c.ws)
	}
	return cs
}

// captureDiff names the first part of two captures that differs, or
// returns "" when they are equal: architectural state, memory contents
// and environment, then every warm table.
func captureDiff(a, b *core.WarmState) string {
	for _, f := range []struct {
		name string
		a, b any
	}{
		{"PC", a.PC, b.PC}, {"FCC", a.FCC, b.FCC}, {"instruction count", a.ICount, b.ICount},
		{"registers", a.Regs, b.Regs}, {"memory", a.Mem, b.Mem}, {"environment", a.Env, b.Env},
		{"I-cache tags", a.ICache, b.ICache}, {"D-cache tags", a.DCache, b.DCache},
		{"branch tables", a.Branch, b.Branch}, {"task predictor", a.TaskPred, b.TaskPred},
		{"return stack", a.RAS, b.RAS}, {"descriptor cache tags", a.DescCache, b.DescCache},
	} {
		if !reflect.DeepEqual(f.a, f.b) {
			return f.name
		}
	}
	return ""
}

// TestScalarCapturesMatchPerInstruction: a program without descriptors
// is captured at exact instruction counts, between run ends. Every
// capture must equal the per-instruction pass's warm state — tags,
// tables, registers, memory and environment — so the open run is
// fetched before the capture, and a run's fetches and branch training
// add up to the instructions'.
func TestScalarCapturesMatchPerInstruction(t *testing.T) {
	for _, name := range []string{"wc", "tomcatv"} {
		wl := workloads.Get(name)
		p, err := wl.Build(asm.ModeScalar, wl.TestScale)
		if err != nil {
			t.Fatal(err)
		}
		matchPerInstruction(t, name, p, core.ScalarConfig(2, true))
	}
}

// TestMultiscalarCapturesMatchPerInstruction: a program with descriptors
// is captured at the first task boundary at or after each scheduled
// point, and every capture must equal the per-instruction pass's warm
// state, the sequencer's task predictor, return stack and descriptor
// cache included. hashmix and bsearch call function tasks, so their
// return stacks move; every program here has tasks with a choice of
// successors.
func TestMultiscalarCapturesMatchPerInstruction(t *testing.T) {
	for _, name := range []string{"hashmix", "bsearch", "compress"} {
		wl := workloads.Get(name)
		p, err := wl.Build(asm.ModeMultiscalar, wl.TestScale)
		if err != nil {
			t.Fatal(err)
		}
		matchPerInstruction(t, name, p, core.DefaultConfig(4, 1, false))
	}
}

// TestInterpRoundTrip carries the functional machine's state into the
// timing machine the one way the tree does, the sampler's: a capture
// taken mid-run at a task boundary and injected into a fresh timing
// machine finishes the run with the functional machine's output, exit
// code and instruction count. The multiscalar binary carries stop bits,
// so the capture points are the task exits the interpreter counts.
func TestInterpRoundTrip(t *testing.T) {
	wl := workloads.Get("compress")
	p, err := wl.Build(asm.ModeMultiscalar, wl.TestScale)
	if err != nil {
		t.Fatal(err)
	}
	full := interp.NewMachine(p, interp.NewSysEnv())
	if err := full.Run(1 << 30); err != nil {
		t.Fatal(err)
	}
	if full.TaskExits == 0 {
		t.Fatal("multiscalar compress retired no task exit")
	}

	cfg := core.DefaultConfig(4, 1, false)
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 4; trial++ {
		stop := 1 + uint64(rng.Int63n(int64(full.ICount*9/10)))
		cs := captures(t, p, cfg, []uint64{stop})
		if len(cs) != 1 {
			t.Fatalf("no task boundary after %d instructions", stop)
		}
		c := cs[0]
		m, err := core.NewMultiscalar(p, c.Env, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.InjectWarm(c); err != nil {
			t.Fatalf("InjectWarm: %v", err)
		}
		res, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Out != full.Env.Out.String() || res.ExitCode != full.Env.ExitCode ||
			c.ICount < stop || c.ICount+res.Committed != full.ICount {
			t.Errorf("run resumed from the capture at %d (asked for %d) diverged: %d+%d instructions, want %d; exit %d, want %d",
				c.ICount, stop, c.ICount, res.Committed, full.ICount, res.ExitCode, full.Env.ExitCode)
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
