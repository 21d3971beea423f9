package litmus

import (
	"fmt"

	"multiscalar/internal/arb"
	"multiscalar/internal/core"
	"multiscalar/internal/interp"
	"multiscalar/internal/isa"
	"multiscalar/internal/job"
	"multiscalar/internal/trace"
)

// MatrixEntry is one machine configuration of the differential matrix.
type MatrixEntry struct {
	Units   int
	Policy  arb.OverflowPolicy
	Entries int  // ARB entries per bank
	Static  bool // StaticPredict ablation instead of the PAs predictor
	NoSkip  bool // dense ticking instead of the wakeup scheduler
}

func (e MatrixEntry) String() string {
	pol := "stall"
	if e.Policy == arb.PolicySquash {
		pol = "squash"
	}
	s := fmt.Sprintf("u%d/%s/e%d", e.Units, pol, e.Entries)
	if e.Static {
		s += "/static"
	}
	if e.NoSkip {
		s += "/noskip"
	}
	return s
}

// Config realizes the entry as a machine configuration.
func (e MatrixEntry) Config() core.Config {
	cfg := core.DefaultConfig(e.Units, 2, true)
	cfg.ARBPolicy = e.Policy
	if e.Entries > 0 {
		cfg.ARBEntries = e.Entries
	}
	cfg.StaticPredict = e.Static
	cfg.NoSkip = e.NoSkip
	// Litmus programs finish in thousands of cycles; a run that does
	// not is itself a failure worth a bounded wait.
	cfg.MaxCycles = 50_000_000
	return cfg
}

// Matrix builds the differential configuration matrix. quick keeps the
// CI floor — unit counts × overflow policies × {event-driven, -noskip}
// with capacity-1 banks under PolicySquash pressure — while the full
// matrix adds entries-per-bank and predictor-mode axes (64 configs).
func Matrix(quick bool) []MatrixEntry {
	var m []MatrixEntry
	for _, units := range []int{1, 2, 4, 8} {
		for _, pol := range []arb.OverflowPolicy{arb.PolicyStall, arb.PolicySquash} {
			for _, noskip := range []bool{false, true} {
				if quick {
					m = append(m, MatrixEntry{Units: units, Policy: pol, Entries: 1, NoSkip: noskip})
					continue
				}
				for _, entries := range []int{256, 1} {
					for _, static := range []bool{false, true} {
						m = append(m, MatrixEntry{
							Units: units, Policy: pol, Entries: entries,
							Static: static, NoSkip: noskip,
						})
					}
				}
			}
		}
	}
	return m
}

// Mismatch is one differential failure: a run the judge found leaving
// the sequential state (or that failed outright) under one matrix entry.
type Mismatch struct {
	Program    *Program
	Entry      MatrixEntry
	Err        string                // run error, if the machine failed to finish
	Divergence *core.DivergenceError // the judge's first divergence
	Diagnosis  string                // the catalogued weak outcome the final output is
	Artifact   *Artifact
}

func (m *Mismatch) String() string {
	if m.Err != "" {
		return fmt.Sprintf("%s @ %s: run error: %s", m.Program.Name, m.Entry, m.Err)
	}
	s := fmt.Sprintf("%s @ %s: %v", m.Program.Name, m.Entry, m.Divergence)
	if m.Diagnosis != "" {
		s += " (" + m.Diagnosis + ")"
	}
	return s
}

// runCell runs one (program, entry) cell on a directly built machine,
// sink attached, judged in lockstep by a functional machine over co (the
// program itself, but for a test that plants a divergence). The run goes
// on past a divergence, so its final output is still classified against
// the forbidden catalogue. It returns the machine (nil when none could be
// built) for the caller's statistics and the mismatch (nil on a pass).
func runCell(p *Program, co *isa.Program, e MatrixEntry, seed int64, sink trace.Sink) (*core.Multiscalar, *Mismatch) {
	cfg := e.Config()
	cfg.Sink = sink
	m, err := core.NewMultiscalar(p.Prog, interp.NewSysEnv(), cfg)
	var res *core.Result
	if err == nil {
		m.Judge(interp.NewMachine(co, interp.NewSysEnv()), genMaxInstrs)
		res, err = m.Run()
	}
	mm := &Mismatch{Program: p, Entry: e}
	switch {
	case err != nil:
		mm.Err = err.Error()
	case m.Divergence() == nil:
		return m, nil
	default:
		mm.Divergence = m.Divergence()
		mm.Diagnosis = p.Classify(res.Out)
	}
	mm.Artifact = NewArtifact(p, e, mm, seed)
	return m, mm
}

// RunDiff executes every program across every matrix entry in parallel
// and returns the mismatches (empty means the judge found every run
// sequential at every retire). seed is recorded in any artifact so CI
// failures name their replay input.
func RunDiff(progs []*Program, matrix []MatrixEntry, seed int64) []*Mismatch {
	type cell struct {
		p *Program
		e MatrixEntry
	}
	cells := make([]cell, 0, len(progs)*len(matrix))
	for _, p := range progs {
		for _, e := range matrix {
			cells = append(cells, cell{p, e})
		}
	}
	results := make([]*Mismatch, len(cells))
	_ = job.RunJobs(len(cells), func(i int) error {
		_, results[i] = runCell(cells[i].p, cells[i].p.Prog, cells[i].e, seed, nil)
		return nil
	})
	var mms []*Mismatch
	for _, r := range results {
		if r != nil {
			mms = append(mms, r)
		}
	}
	return mms
}
