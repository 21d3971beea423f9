package core

import (
	"testing"

	"multiscalar/internal/asm"
	"multiscalar/internal/interp"
	"multiscalar/internal/isa"
	"multiscalar/internal/workloads"
)

func buildWarmTest(t *testing.T, name string, mode asm.Mode) *isa.Program {
	t.Helper()
	w := workloads.Get(name)
	if w == nil {
		t.Fatalf("unknown workload %q", name)
	}
	p, err := w.Build(mode, w.TestScale)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// entryWarmState is the capture of a functional machine at the program
// entry: initial architectural state, cold tables.
func entryWarmState(p *isa.Program, cfg Config) *WarmState {
	m := interp.NewMachine(p, interp.NewSysEnv())
	return NewWarmState(p, cfg).Capture(m, m.PC, 0, nil)
}

// TestInjectWarmAtEntryMultiscalar: injecting a warm state captured at
// the entry point with cold tables must reproduce a fresh run exactly —
// injection adds state, never perturbs timing.
func TestInjectWarmAtEntryMultiscalar(t *testing.T) {
	p := buildWarmTest(t, "example", asm.ModeMultiscalar)
	cfg := DefaultConfig(4, 1, false)

	fresh, err := NewMultiscalar(p, interp.NewSysEnv(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Run()
	if err != nil {
		t.Fatal(err)
	}

	ws := entryWarmState(p, cfg)
	m, err := NewMultiscalar(p, interp.NewSysEnv(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.InjectWarm(ws); err != nil {
		t.Fatal(err)
	}
	got, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got.Cycles != want.Cycles || got.Committed != want.Committed || got.Out != want.Out {
		t.Errorf("injected run (%d cycles, %d instrs, %q) != fresh run (%d, %d, %q)",
			got.Cycles, got.Committed, got.Out, want.Cycles, want.Committed, want.Out)
	}
}

// TestInjectWarmAtEntryScalar: the same contract for the implicit task.
func TestInjectWarmAtEntryScalar(t *testing.T) {
	p := buildWarmTest(t, "example", asm.ModeScalar)
	cfg := ScalarConfig(1, false)

	want, err := newScalarMachine(t, p, cfg).Run()
	if err != nil {
		t.Fatal(err)
	}

	ws := entryWarmState(p, cfg)
	s := newScalarMachine(t, p, cfg)
	if err := s.InjectWarm(ws); err != nil {
		t.Fatal(err)
	}
	got, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got.Cycles != want.Cycles || got.Committed != want.Committed || got.Out != want.Out {
		t.Errorf("injected run (%d cycles, %d instrs) != fresh run (%d, %d)",
			got.Cycles, got.Committed, want.Cycles, want.Committed)
	}
}

// TestInjectWarmRejections: injection is defined only on a fresh
// machine, from a capture of the matching shape, at a task boundary.
func TestInjectWarmRejections(t *testing.T) {
	p := buildWarmTest(t, "example", asm.ModeMultiscalar)
	cfg := DefaultConfig(4, 1, false)
	m, err := NewMultiscalar(p, interp.NewSysEnv(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if err := m.InjectWarm(entryWarmState(p, cfg)); err == nil {
		t.Error("InjectWarm accepted a machine that has already run")
	}

	// A capture of the program's scalar build (no sequencer sections)
	// into a machine running the one with descriptors, and the reverse.
	sp := buildWarmTest(t, "example", asm.ModeScalar)
	m2, err := NewMultiscalar(p, interp.NewSysEnv(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.InjectWarm(entryWarmState(sp, cfg)); err == nil {
		t.Error("InjectWarm accepted a capture without sequencer state for a program with descriptors")
	}
	scfg := ScalarConfig(1, false)
	if err := newScalarMachine(t, sp, scfg).InjectWarm(entryWarmState(p, scfg)); err == nil {
		t.Error("InjectWarm accepted a capture with sequencer state for a program without descriptors")
	}

	// A PC that is not a task boundary.
	ws := entryWarmState(p, cfg)
	ws.PC = p.Entry + isa.InstrSize
	if p.TaskAt(ws.PC) != nil {
		t.Skip("entry+4 happens to be a task boundary in this build")
	}
	m3, err := NewMultiscalar(p, interp.NewSysEnv(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m3.InjectWarm(ws); err == nil {
		t.Error("InjectWarm accepted a non-boundary PC")
	}
}

// TestCommitLimitPauseResume: pausing a run at commit limits and
// resuming must reproduce the uninterrupted run bit for bit — the
// invariant the sampled windows' measured regions rest on.
func TestCommitLimitPauseResume(t *testing.T) {
	t.Run("multiscalar", func(t *testing.T) {
		p := buildWarmTest(t, "example", asm.ModeMultiscalar)
		cfg := DefaultConfig(4, 1, false)
		fresh, err := NewMultiscalar(p, interp.NewSysEnv(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Run()
		if err != nil {
			t.Fatal(err)
		}

		m, err := NewMultiscalar(p, interp.NewSysEnv(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		var pauses int
		for _, limit := range []uint64{1, want.Committed / 4, want.Committed / 2} {
			m.SetCommitLimit(limit)
			r, err := m.Run()
			if err != nil {
				t.Fatal(err)
			}
			if r.Committed < limit {
				t.Fatalf("pause at limit %d returned %d committed", limit, r.Committed)
			}
			pauses++
		}
		m.SetCommitLimit(0)
		got, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		if got.Cycles != want.Cycles || got.Committed != want.Committed || got.Out != want.Out {
			t.Errorf("after %d pauses: (%d cycles, %d instrs, %q) != uninterrupted (%d, %d, %q)",
				pauses, got.Cycles, got.Committed, got.Out, want.Cycles, want.Committed, want.Out)
		}
	})
	t.Run("scalar", func(t *testing.T) {
		p := buildWarmTest(t, "example", asm.ModeScalar)
		cfg := ScalarConfig(1, false)
		want, err := newScalarMachine(t, p, cfg).Run()
		if err != nil {
			t.Fatal(err)
		}
		s := newScalarMachine(t, p, cfg)
		for _, limit := range []uint64{1, want.Committed / 3} {
			s.SetCommitLimit(limit)
			if _, err := s.Run(); err != nil {
				t.Fatal(err)
			}
		}
		s.SetCommitLimit(0)
		got, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		if got.Cycles != want.Cycles || got.Committed != want.Committed || got.Out != want.Out {
			t.Errorf("paused run (%d cycles, %d instrs) != uninterrupted (%d, %d)",
				got.Cycles, got.Committed, want.Cycles, want.Committed)
		}
	})
}
