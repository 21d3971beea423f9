package main

import (
	"fmt"
	"runtime"
	"time"

	"multiscalar/internal/asm"
	"multiscalar/internal/core"
	"multiscalar/internal/job"
	"multiscalar/internal/pu"
)

// point is one (program, machine) exact simulation. class names the
// core.*_kcps row its host time is booked under.
type point struct {
	workload string
	scale    int
	mode     asm.Mode
	cfg      core.Config
	class    string
}

func (p point) spec() *job.Spec {
	return &job.Spec{Op: job.OpSimulate, Workload: p.workload, Scale: p.scale, Mode: p.mode, Config: p.cfg}
}

// widePoints is "one mssim run" on the paper's headline machine: five
// programs on 8 units 2-way out-of-order covering wait-pred-heavy
// (compress), squash-heavy (gcc), FP/ARB-heavy (tomcatv) behaviour, and
// the load-imbalanced 16-unit wc.
func widePoints() []point {
	ooo8 := core.DefaultConfig(8, 2, true)
	return []point{
		{"example", 3600, asm.ModeMultiscalar, ooo8, "ms8"},
		{"compress", 48000, asm.ModeMultiscalar, ooo8, "ms8"},
		{"gcc", 51200, asm.ModeMultiscalar, ooo8, "ms8"},
		{"xlisp", 3840, asm.ModeMultiscalar, ooo8, "ms8"},
		{"tomcatv", 192, asm.ModeMultiscalar, ooo8, "ms8"},
		{"wc", 8192, asm.ModeMultiscalar, core.DefaultConfig(16, 1, false), "ms16"},
	}
}

// narrowPoints runs the same timing layers where the wakeup scheduler
// matters: the scalar baseline, 1-unit multiscalar machines, and the
// stall-heavy configuration of core's BenchmarkStallHeavy.
func narrowPoints() []point {
	stall := core.DefaultConfig(1, 1, false)
	stall.DCacheHit = 24
	stall.Latencies.IntMul = 24
	stall.Latencies.SPMul = 40
	var pts []point
	for _, p := range []struct {
		name  string
		scale int
	}{{"example", 7200}, {"compress", 192000}, {"tomcatv", 384}} {
		pts = append(pts,
			point{p.name, p.scale, asm.ModeScalar, core.ScalarConfig(2, true), "scalar"},
			point{p.name, p.scale, asm.ModeMultiscalar, core.DefaultConfig(1, 1, false), "ms1"})
	}
	return append(pts, point{"compress", 192000, asm.ModeMultiscalar, stall, "ms1"})
}

// exactRuns is the exact_wide and exact_narrow workloads: every point
// run one at a time through job.Execute and checked against the
// functional oracle built in set-up.
type exactRuns struct {
	points  []point
	wide    bool
	specs   []*job.Spec
	oracles []*job.Oracle

	// Kept from the untraced passes for the traced run's core.* rows.
	secs    [][]float64    // host seconds per point, one entry per pass
	results []*core.Result // the last pass's results (every pass's are identical)
}

func (w *exactRuns) setup(rc *runCtx) error {
	job.ResetBuildMemo()
	w.specs, w.oracles = nil, nil
	for _, p := range w.points {
		spec := p.spec()
		id := rc.tr.begin("job.resolve", 0, p.workload)
		prog, err := spec.Resolve()
		rc.tr.end(id)
		if err != nil {
			return err
		}
		id = rc.tr.begin("job.oracle", 0, p.workload)
		o, err := job.RunOracle(prog, nil, 0)
		rc.tr.end(id)
		if err != nil {
			return err
		}
		w.specs = append(w.specs, spec)
		w.oracles = append(w.oracles, o)
	}
	w.secs = make([][]float64, len(w.points))
	return nil
}

func (w *exactRuns) pass(rc *runCtx) (passResult, error) {
	return w.run(rc, w.specs, rc.tr == nil)
}

// run executes specs in order and checks each against its oracle. keep
// records per-point host times for the probes.
func (w *exactRuns) run(rc *runCtx, specs []*job.Spec, keep bool) (passResult, error) {
	var out passResult
	results := make([]*core.Result, len(specs))
	root := rc.tr.begin("pass", 0, rc.name)
	start := time.Now()
	for i, spec := range specs {
		id := rc.tr.begin("job.execute", root, spec.Workload)
		t0 := time.Now()
		o, err := job.Execute(spec, nil)
		d := time.Since(t0).Seconds()
		rc.tr.end(id)
		if err != nil {
			rc.op(false, "%s@%d: %v", spec.Workload, spec.Scale, err)
			continue
		}
		r, want := o.Result, w.oracles[i]
		rc.op(r.Out == want.Out && r.Committed == want.ICount && r.ExitCode == want.ExitCode,
			"%s@%d: timing run diverged from the oracle (committed %d, oracle %d)", spec.Workload, spec.Scale, r.Committed, want.ICount)
		out.cycles += r.Cycles
		out.instrs += r.Committed
		out.jobs++
		results[i] = r
		if keep {
			w.secs[i] = append(w.secs[i], d)
		}
	}
	out.wall = time.Since(start).Seconds()
	rc.tr.end(root)
	if out.jobs != len(specs) {
		return out, fmt.Errorf("%d of %d runs failed", len(specs)-out.jobs, len(specs))
	}
	if keep {
		w.results = results
	}
	return out, nil
}

// probes books the untraced passes' host time under core.*_kcps, reads
// the modelled-machine counts out of the Results, and runs the layer
// microbenchmarks whose effect should show on this workload.
func (w *exactRuns) probes(rc *runCtx) error {
	var secs, cycles, skipped, unitTicks float64
	classSecs, classCycles := map[string]float64{}, map[string]float64{}
	for i, p := range w.points {
		s, r := median(w.secs[i]), w.results[i]
		secs += s
		cycles += float64(r.Cycles)
		skipped += float64(r.Cycles - r.CyclesTicked)
		unitTicks += float64(r.CyclesTicked) * float64(p.cfg.NumUnits)
		classSecs[p.class] += s
		classCycles[p.class] += float64(r.Cycles)
	}
	for class, s := range classSecs {
		rc.set("core."+class+"_kcps", classCycles[class]/s/1e3)
	}
	rc.set("core.ns_per_unit_tick", secs*1e9/unitTicks)

	// Heap allocations per simulated kilocycle: one more pass between
	// two MemStats readings.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := w.run(rc, w.specs, false); err != nil {
		return err
	}
	runtime.ReadMemStats(&after)
	rc.set("core.mallocs_per_kcycle", float64(after.Mallocs-before.Mallocs)/(cycles/1e3))

	if !w.wide {
		rc.set("core.skip_ratio_narrow", skipped/cycles)
		return w.noSkipProbe(rc, secs)
	}
	rc.set("core.skip_ratio_wide", skipped/cycles)
	w.machineCounts(rc)
	if err := w.fourUnitProbe(rc); err != nil {
		return err
	}
	var err error
	rc.set("interp.oracle_ms", 1e3*perCall(func() {
		for _, spec := range w.specs {
			prog, e := spec.Resolve()
			if e == nil {
				_, e = job.RunOracle(prog, nil, 0)
			}
			if e != nil {
				err = e
			}
		}
	}))
	if err != nil {
		return err
	}
	arbProbe(rc)
	var misses, accesses float64
	for i, r := range w.results {
		misses += float64(r.DCacheMisses)
		accesses += float64(w.oracles[i].Loads + w.oracles[i].Stores)
	}
	memProbe(rc, misses/accesses)
	predictProbe(rc)
	return nil
}

// machineCounts sums the modelled machine's own counters over the wide
// set. They are exact: a host-speed change must leave every one of them
// identical, a change to the modelled machine moves sim_cycles with them.
func (w *exactRuns) machineCounts(rc *runCtx) {
	var t core.Result
	var act [pu.NumActivities + 1]float64
	total := 0.0
	for i, r := range w.results {
		t.Committed += r.Committed
		t.TasksRetired += r.TasksRetired
		t.TasksSquashed += r.TasksSquashed
		t.CtlSquashes += r.CtlSquashes
		t.MemSquashes += r.MemSquashes
		t.RingSends += r.RingSends
		t.Predictions += r.Predictions
		t.PredCorrect += r.PredCorrect
		t.ICacheMisses += r.ICacheMisses
		t.DCacheMisses += r.DCacheMisses
		t.DBankConflicts += r.DBankConflicts
		t.BusRequests += r.BusRequests
		t.ARBAllocs += r.ARBAllocs
		t.ARBOverflows += r.ARBOverflows
		t.ARBViolations += r.ARBViolations
		t.ARBStoreForwards += r.ARBStoreForwards
		t.ARBPeakOccupancy = max(t.ARBPeakOccupancy, r.ARBPeakOccupancy)
		for a := range r.Activity {
			act[a] += float64(r.Activity[a])
		}
		act[pu.NumActivities] += float64(r.SquashedCycles)
		total += float64(r.Cycles) * float64(w.points[i].cfg.NumUnits)
	}
	for name, v := range map[string]uint64{
		"core.committed": t.Committed, "core.tasks_retired": t.TasksRetired, "core.tasks_squashed": t.TasksSquashed,
		"core.ctl_squashes": t.CtlSquashes, "core.mem_squashes": t.MemSquashes, "core.ring_sends": t.RingSends,
		"arb.allocs": t.ARBAllocs, "arb.overflows": t.ARBOverflows, "arb.violations": t.ARBViolations,
		"arb.store_forwards": t.ARBStoreForwards, "arb.peak_occupancy": uint64(t.ARBPeakOccupancy),
		"mem.icache_misses": t.ICacheMisses, "mem.dcache_misses": t.DCacheMisses,
		"mem.bank_conflicts": t.DBankConflicts, "mem.bus_requests": t.BusRequests,
	} {
		rc.set(name, float64(v))
	}
	rc.set("predict.task_accuracy", 100*float64(t.PredCorrect)/float64(t.Predictions))
	// Shares of units x cycles; retired activity and squashed work are
	// disjoint, so the six sum to 100.
	for name, a := range map[string]int{
		"core.act_compute_pct": int(pu.ActCompute), "core.act_wait_pred_pct": int(pu.ActWaitPred),
		"core.act_wait_intra_pct": int(pu.ActWaitIntra), "core.act_wait_retire_pct": int(pu.ActWaitRetire),
		"core.act_idle_pct": int(pu.ActIdle), "core.squashed_pct": int(pu.NumActivities),
	} {
		rc.set(name, 100*act[a]/total)
	}
}

// fourUnitProbe times the 4-unit machine, which no pass runs.
func (w *exactRuns) fourUnitProbe(rc *runCtx) error {
	spec := point{"example", 3600, asm.ModeMultiscalar, core.DefaultConfig(4, 2, true), "ms4"}.spec()
	var cycles uint64
	var err error
	secs := perCall(func() {
		var o *job.Output
		if o, err = job.Execute(spec, nil); err == nil {
			cycles = o.Result.Cycles
		}
	})
	rc.set("core.ms4_kcps", float64(cycles)/secs/1e3)
	return err
}

// noSkipProbe reruns the narrow set with the wakeup scheduler off: the
// ratio of the two host times is what the scheduler buys.
func (w *exactRuns) noSkipProbe(rc *runCtx, skipSecs float64) error {
	dense := make([]*job.Spec, len(w.specs))
	for i, s := range w.specs {
		c := *s
		c.Config.NoSkip = true
		dense[i] = &c
	}
	p, err := w.run(rc, dense, false)
	if err != nil {
		return err
	}
	rc.set("core.noskip_slowdown", p.wall/skipSecs)
	return nil
}
