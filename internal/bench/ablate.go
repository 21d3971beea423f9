package bench

import (
	"fmt"
	"strings"

	"multiscalar/internal/arb"
	"multiscalar/internal/asm"
	"multiscalar/internal/core"
	"multiscalar/internal/isa"
	"multiscalar/internal/job"
	"multiscalar/internal/workloads"
)

// AblationRow is one configuration point of an ablation sweep.
type AblationRow struct {
	Label   string
	Cycles  uint64
	Speedup float64 // vs the sweep's baseline row
	Extra   string
}

// sweep fans the configuration points of workload `name` out over the
// worker pool and assembles rows in input order with speedups relative to
// row 0.
func sweep(name string, scale Scale, n int, cfgOf func(i int) core.Config,
	rowOf func(i int, res *core.Result) AblationRow) ([]AblationRow, error) {

	w := workloads.Get(name)
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	spec := pointSpec(w, asm.ModeMultiscalar, scale)
	results := make([]*core.Result, n)
	err := job.RunJobs(n, func(i int) error {
		res, err := runPoint(spec, cfgOf(i), "ablation run")
		results[i] = res
		return err
	})
	if err != nil {
		return nil, err
	}
	base := results[0].Cycles
	rows := make([]AblationRow, n)
	for i, res := range results {
		rows[i] = rowOf(i, res)
		rows[i].Cycles = res.Cycles
		rows[i].Speedup = float64(base) / float64(res.Cycles)
	}
	return rows, nil
}

// UnitSweep measures cycles across unit counts (the window-size knob the
// whole paradigm turns on).
func UnitSweep(name string, scale Scale, counts []int) ([]AblationRow, error) {
	return sweep(name, scale, len(counts),
		func(i int) core.Config { return core.DefaultConfig(counts[i], 1, false) },
		func(i int, res *core.Result) AblationRow {
			return AblationRow{
				Label: fmt.Sprintf("%d units", counts[i]),
				Extra: fmt.Sprintf("pred=%.1f%% squash=%d", 100*res.PredAccuracy(), res.TasksSquashed),
			}
		})
}

// RingLatencySweep varies the per-hop forwarding latency (Section 5.1
// uses 1 cycle).
func RingLatencySweep(name string, scale Scale, latencies []int) ([]AblationRow, error) {
	return sweep(name, scale, len(latencies),
		func(i int) core.Config {
			cfg := core.DefaultConfig(8, 1, false)
			cfg.RingLatency = latencies[i]
			return cfg
		},
		func(i int, res *core.Result) AblationRow {
			return AblationRow{Label: fmt.Sprintf("ring hop %d cycles", latencies[i])}
		})
}

// ARBSweep varies ARB capacity under both overflow policies (Section 2.3
// discusses squash-on-full vs stall-but-head).
func ARBSweep(name string, scale Scale, entries []int) ([]AblationRow, error) {
	policies := []arb.OverflowPolicy{arb.PolicyStall, arb.PolicySquash}
	return sweep(name, scale, len(policies)*len(entries),
		func(i int) core.Config {
			cfg := core.DefaultConfig(8, 1, false)
			cfg.ARBEntries = entries[i%len(entries)]
			cfg.ARBPolicy = policies[i/len(entries)]
			return cfg
		},
		func(i int, res *core.Result) AblationRow {
			return AblationRow{
				Label: fmt.Sprintf("%d entries, %v", entries[i%len(entries)], policies[i/len(entries)]),
				Extra: fmt.Sprintf("overflows=%d arb-squashes=%d", res.ARBOverflows, res.ARBSquashes),
			}
		})
}

// stripForwarding clears every forward bit and neuters release
// instructions, leaving only the completion flush to communicate values —
// the non-expedient strategy Section 2.2 warns against.
func stripForwarding(p *isa.Program) {
	for i := range p.Text {
		p.Text[i].Fwd = false
		if p.Text[i].Op == isa.OpRelease {
			p.Text[i].Op = isa.OpNop
		}
	}
}

// ForwardingAblation compares early forwarding (forward bits + releases)
// against completion-flush-only on 8 units.
func ForwardingAblation(name string, scale Scale) ([]AblationRow, error) {
	w := workloads.Get(name)
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	hand := pointSpec(w, asm.ModeMultiscalar, scale)
	p, err := hand.Resolve()
	if err != nil {
		return nil, err
	}
	// Forward bits and releases only route values; they never change the
	// functional outcome (a release becomes a nop, which still retires).
	// The stripped clone is a program of its own content hash, verified
	// against its own oracle run.
	stripped := p.Clone()
	stripForwarding(stripped)
	bare := hand
	bare.Workload, bare.Program = "", stripped
	specs := []job.Spec{hand, bare}

	results := make([]*core.Result, 2)
	err = job.RunJobs(2, func(i int) error {
		res, err := runPoint(specs[i], core.DefaultConfig(8, 1, false), "ablation run")
		results[i] = res
		return err
	})
	if err != nil {
		return nil, err
	}
	withFwd, without := results[0], results[1]
	return []AblationRow{
		{Label: "forward bits + releases", Cycles: withFwd.Cycles, Speedup: 1},
		{Label: "completion flush only", Cycles: without.Cycles,
			Speedup: float64(withFwd.Cycles) / float64(without.Cycles)},
	}, nil
}

// PredictorAblation compares the PAs task predictor against static
// first-target prediction on 8 units.
func PredictorAblation(name string, scale Scale) ([]AblationRow, error) {
	return sweep(name, scale, 2,
		func(i int) core.Config {
			cfg := core.DefaultConfig(8, 1, false)
			cfg.StaticPredict = i == 1
			return cfg
		},
		func(i int, res *core.Result) AblationRow {
			label := "PAs two-level predictor"
			if i == 1 {
				label = "static first-target"
			}
			return AblationRow{
				Label: label,
				Extra: fmt.Sprintf("pred=%.1f%%", 100*res.PredAccuracy()),
			}
		})
}

// FormatAblation renders one sweep.
func FormatAblation(title string, rows []AblationRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-28s %10d cycles  %6.2fx  %s\n", r.Label, r.Cycles, r.Speedup, r.Extra)
	}
	return b.String()
}

// SharedFUAblation compares private per-unit FP/complex units (the paper's
// Figure 1 organization) against the shared-FU alternative
// microarchitecture sketched in Section 2.3, on 8 units.
func SharedFUAblation(name string, scale Scale) ([]AblationRow, error) {
	shared := []int{0, 2, 1} // 0 = private per-unit FUs
	return sweep(name, scale, len(shared),
		func(i int) core.Config {
			cfg := core.DefaultConfig(8, 1, false)
			cfg.SharedFPUnits = shared[i]
			return cfg
		},
		func(i int, res *core.Result) AblationRow {
			if shared[i] == 0 {
				return AblationRow{Label: "private FUs (Figure 1)"}
			}
			return AblationRow{Label: fmt.Sprintf("%d shared FP/complex units", shared[i])}
		})
}
