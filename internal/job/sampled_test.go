package job

import (
	"reflect"
	"testing"
	"time"

	"multiscalar/internal/asm"
	"multiscalar/internal/core"
	"multiscalar/internal/interp"
	"multiscalar/internal/isa"
	"multiscalar/internal/sample"
	"multiscalar/internal/workloads"
)

func sampledSpec() *Spec {
	return &Spec{
		Op:       OpSampled,
		Workload: "example",
		Mode:     asm.ModeMultiscalar,
		Config:   core.DefaultConfig(4, 1, false),
	}
}

// TestSampledSpecKeySensitivity: a sampled job never aliases the
// simulate job of the same program and config.
func TestSampledSpecKeySensitivity(t *testing.T) {
	baseKey, err := sampledSpec().Key()
	if err != nil {
		t.Fatal(err)
	}
	sim := sampledSpec()
	sim.Op = OpSimulate
	simKey, err := sim.Key()
	if err != nil {
		t.Fatal(err)
	}
	if simKey == baseKey {
		t.Error("sampled and simulate jobs of the same program share a key")
	}
}

// TestSampledSpecValidation: sampled jobs reject the options that have
// no meaning for an estimated run.
func TestSampledSpecValidation(t *testing.T) {
	for name, mutate := range map[string]func(*Spec){
		"want-trace":    func(s *Spec) { s.WantTrace = true },
		"want-snapshot": func(s *Spec) { s.WantSnapshot = true },
		"verify":        func(s *Spec) { s.Verify = true },
	} {
		s := sampledSpec()
		mutate(s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: Validate accepted an invalid sampled spec", name)
		}
	}
	if err := sampledSpec().Validate(); err != nil {
		t.Errorf("valid sampled spec rejected: %v", err)
	}
}

// TestExecuteSampled: the sampled execution path produces an estimate
// whose functional oracle matches a plain simulate job of the same
// program.
func TestExecuteSampled(t *testing.T) {
	out, err := Execute(sampledSpec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Sampled == nil {
		t.Fatal("sampled job returned no estimate")
	}
	sim := sampledSpec()
	sim.Op = OpSimulate
	simOut, err := Execute(sim, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Sampled.Out != simOut.Result.Out || out.Sampled.TotalInstrs != simOut.Result.Committed {
		t.Errorf("sampled oracle (%q, %d instrs) disagrees with simulate job (%q, %d)",
			out.Sampled.Out, out.Sampled.TotalInstrs, simOut.Result.Out, simOut.Result.Committed)
	}
	if out.Sampled.EstCycles == 0 {
		t.Error("estimate has zero cycles")
	}
}

// TestSampledBatchUnderBudget: a fan-out of sampled jobs whose windows
// fan out again, on a two-runner budget, finishes — the shape a bench
// section of sampled rows has, and the one a blocking process-wide
// bound deadlocked on (outer runners held while their windows waited for
// runners). Sampling schedules its windows before it starts, so the
// estimates equal the same jobs run one at a time.
func TestSampledBatchUnderBudget(t *testing.T) {
	var specs []*Spec
	for _, p := range []struct {
		workload string
		scale    int
	}{{"example", 14400}, {"wc", 32768}, {"example", 3600}, {"wc", 8192}, {"example", 900}} {
		specs = append(specs, &Spec{Op: OpSampled, Workload: p.workload, Scale: p.scale,
			Mode: asm.ModeMultiscalar, Config: core.DefaultConfig(8, 2, true)})
	}
	batch := make([]*sample.Estimate, len(specs))
	done := make(chan error, 1)
	withWorkers(t, 2, func() {
		go func() {
			done <- RunJobs(len(specs), func(i int) error {
				out, err := Execute(specs[i], nil)
				if err == nil {
					batch[i] = out.Sampled
				}
				return err
			})
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(3 * time.Minute):
			t.Fatal("a batch of sampled jobs did not finish on a two-runner budget")
		}
	})
	withWorkers(t, 1, func() {
		for i, s := range specs {
			out, err := Execute(s, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(out.Sampled, batch[i]) {
				t.Errorf("%s@%d: estimate in the batch differs from the job run alone:\n%+v\n%+v",
					s.Workload, s.Scale, batch[i], out.Sampled)
			}
		}
	})
}

// exitHook counts task exits the way the sampler's warming pass sees
// them: from the program text's stop bits and the resolved next PC of
// each retired instruction.
type exitHook struct {
	p     *isa.Program
	exits uint64
}

func (h *exitHook) Mem(uint32, bool) {}

func (h *exitHook) Retire(pc, next uint32) {
	taken := next != pc+isa.InstrSize
	switch h.p.Text[(pc-isa.TextBase)/isa.InstrSize].Stop {
	case isa.StopAlways:
		h.exits++
	case isa.StopTaken:
		if taken {
			h.exits++
		}
	case isa.StopNotTaken:
		if !taken {
			h.exits++
		}
	}
}

// TestOracleTaskExitsMatchesHook: the oracle's native task-exit count —
// what sizes a sampled run's warm-up now that the sampler has no count
// pass of its own — equals what a Warmer watching the retired stream
// counts, for every table workload in both modes.
func TestOracleTaskExitsMatchesHook(t *testing.T) {
	all := workloads.All()
	if len(all) != 10 {
		t.Fatalf("%d table workloads, want 10", len(all))
	}
	for _, w := range all {
		for _, mode := range []asm.Mode{asm.ModeScalar, asm.ModeMultiscalar} {
			p, err := w.Build(mode, w.TestScale)
			if err != nil {
				t.Fatal(err)
			}
			o, err := RunOracle(p, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			h := &exitHook{p: p}
			m := interp.NewMachine(p, interp.NewSysEnv())
			m.Warm = h
			if err := m.Run(DefaultMaxInstrs); err != nil {
				t.Fatal(err)
			}
			if o.TaskExits != h.exits || m.TaskExits != h.exits {
				t.Errorf("%s mode %v: oracle counted %d task exits, hooked machine %d, hook %d",
					w.Name, mode, o.TaskExits, m.TaskExits, h.exits)
			}
			if mode == asm.ModeMultiscalar && h.exits == 0 {
				t.Errorf("%s: multiscalar binary retired no task exit", w.Name)
			}
		}
	}
}

// TestSampledSharesOracleRun: a sampled job takes its functional
// reference from the oracle memo — after a verified run of the same
// program it interprets nothing but the warming pass, and a second
// sampled job of a cold program pays for one oracle run, not two.
func TestSampledSharesOracleRun(t *testing.T) {
	ResetBuildMemo()
	verified := sampledSpec()
	verified.Op, verified.Verify = OpSimulate, true
	if _, err := Execute(verified, nil); err != nil {
		t.Fatal(err)
	}
	_, before := Stats()
	for _, cfg := range []core.Config{core.DefaultConfig(4, 1, false), core.DefaultConfig(8, 2, true)} {
		s := sampledSpec()
		s.Config = cfg
		if _, err := Execute(s, nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, st := Stats(); st.Runs != before.Runs {
		t.Errorf("%d oracle runs for two sampled jobs after a verified run of the same program, want 0", st.Runs-before.Runs)
	}

	ResetBuildMemo()
	_, before = Stats()
	for i := 0; i < 2; i++ {
		if _, err := Execute(sampledSpec(), nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, st := Stats(); st.Runs-before.Runs != 1 {
		t.Errorf("%d oracle runs for two cold sampled jobs of one program, want 1", st.Runs-before.Runs)
	}
}
