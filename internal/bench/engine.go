package bench

import (
	"context"
	"fmt"
	"sync/atomic"

	"multiscalar/internal/asm"
	"multiscalar/internal/core"
	"multiscalar/internal/isa"
	"multiscalar/internal/job"
	"multiscalar/internal/workloads"
)

// The harness owns no execution machinery: a simulation point is one
// job.Execute call behind a job.Store of finished results, builds and
// functional-oracle runs are job's process-wide stores, and independent
// points fan out over job's worker pool (job.RunJobs). Results land in
// index-addressed slices, so formatted tables are byte-identical to the
// sequential path regardless of completion order.

// buildSpec names one workload build at one (mode, resolved scale): two
// lookups share a program and an oracle exactly when their buildSpec keys
// agree. No workload of the suite reads input, so none is named.
func buildSpec(w *workloads.Workload, mode asm.Mode, scale Scale) *job.Spec {
	return &job.Spec{Op: job.OpAssemble, Workload: w.Name, Mode: mode, Scale: scale.of(w)}
}

// buildOracle returns workload w's binary in the given mode and its
// functional-oracle reference, both answered from job's stores
// (single-flight, once per process). The returned Program is shared and
// must not be mutated — Clone it before transforming it.
func buildOracle(w *workloads.Workload, mode asm.Mode, scale Scale) (*isa.Program, *job.Oracle, error) {
	p, err := buildSpec(w, mode, scale).Resolve()
	if err != nil {
		return nil, nil, err
	}
	o, err := job.CachedOracle(p, nil, 0)
	return p, o, err
}

// pointSpec names the verified simulation of workload w's binary in the
// given mode: the harness names its work (workload, mode, scale)
// and leaves building, oracle verification and machine dispatch to
// job.Execute. A transformed binary takes the spec's Workload out and
// puts an inline Program in (ForwardingAblation).
func pointSpec(w *workloads.Workload, mode asm.Mode, scale Scale) job.Spec {
	s := *buildSpec(w, mode, scale)
	s.Op, s.Verify = job.OpSimulate, true
	return s
}

// results holds every finished simulation point of the process, keyed by
// the content-addressed job.Spec key — hash(program identity, canonical
// config, stdin) — the same identity msserve's result cache uses. The
// harness's sections overlap heavily (every ablation sweep contains the
// unablated Section 5.1 configuration, the breakdown re-runs the main
// tables' 8-unit points, the speedup curves re-run their scalar baselines
// and 4/8-unit points), so a duplicate point is answered with the stored,
// read-only Result instead of being simulated again.
var results = job.NewStore[*core.Result](0)

// RunsRestored reports how many simulation points were answered from the
// result store rather than simulated again (JSON report field
// runs_restored).
func RunsRestored() uint64 { return results.Stats().Hits }

// ResetMemo drops the harness's results and job's build/oracle stores
// (tests and long-lived hosts).
func ResetMemo() {
	results.Reset()
	job.ResetBuildMemo()
}

// runPoint simulates spec's program under cfg, verified against the
// memoized functional oracle, sharing the work of duplicate points as
// described above. The returned Result is shared: read-only. what labels
// errors.
func runPoint(spec job.Spec, cfg core.Config, what string) (*core.Result, error) {
	applyRunFlags(&cfg)
	spec.Config = cfg
	key, err := spec.Key()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", what, err)
	}
	res, _, err := results.Do(context.Background(), key, func() (*core.Result, error) {
		out, err := job.Execute(&spec, nil)
		if err != nil {
			return nil, err
		}
		recordRun(out.Result)
		return out.Result, nil
	})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", what, err)
	}
	return res, nil
}

// BuildsPerformed returns how many program builds have actually run in
// this process (misses of job's program store).
func BuildsPerformed() uint64 {
	builds, _ := job.Stats()
	return builds.Runs
}

// noSkip, when set, disables the simulator's wakeup scheduler for every
// harness run (core.Config.NoSkip): the msbench -noskip flag, used to
// demonstrate that tables are byte-identical with and without cycle
// skipping and to measure the skip's wall-clock effect.
var noSkip atomic.Bool

// SetNoSkip forces dense ticking (no cycle skipping) in all subsequent
// harness simulations.
func SetNoSkip(v bool) { noSkip.Store(v) }

// applyRunFlags applies process-wide harness toggles to one run's config.
func applyRunFlags(cfg *core.Config) {
	if noSkip.Load() {
		cfg.NoSkip = true
	}
}

// Aggregate simulated-work counters behind the JSON report's throughput
// numbers. Every verified timing run adds its cycles and committed
// instructions; ticked counts the cycles the timing loops actually
// executed (cycles-ticked < cycles means the wakeup scheduler jumped
// stall windows — the skip ratio the JSON report derives).
var simCycles, simTicked, simInstrs, simRuns atomic.Uint64

func recordRun(res *core.Result) {
	simCycles.Add(res.Cycles)
	simTicked.Add(res.CyclesTicked)
	simInstrs.Add(res.Committed)
	simRuns.Add(1)
}

// SimTotals reports the cumulative simulated work of this process:
// timing-simulator runs, simulated cycles, and committed instructions.
func SimTotals() (runs, cycles, instrs uint64) {
	return simRuns.Load(), simCycles.Load(), simInstrs.Load()
}

// SimTicked reports the cumulative cycles the timing loops actually
// executed (see SimTotals; the difference from cycles is what the wakeup
// scheduler skipped).
func SimTicked() uint64 { return simTicked.Load() }
