package main

import (
	"fmt"
	"math"
	"time"

	"multiscalar/internal/asm"
	_ "multiscalar/internal/bench" // registers its pool as the sampler's window runner, as msbench -sampled has it
	"multiscalar/internal/core"
	"multiscalar/internal/isa"
	"multiscalar/internal/job"
	"multiscalar/internal/sample"
)

// sampledLong is "one sampled estimate" in wall-clock: the two longest
// table workloads at a long-run scale on 8 units 2-way out-of-order,
// estimated with default sample.Params. Each is also run exactly, once
// and outside the timed passes, for the reference cycle count.
type sampledLong struct {
	specs []*job.Spec
	exact []*core.Result // reference runs, made before the first pass
	refS  float64        // host seconds the reference runs took

	secs [][]float64        // per program, host seconds per untraced pass
	ests []*sample.Estimate // the last pass's estimates
}

func (w *sampledLong) setup(rc *runCtx) error {
	job.ResetBuildMemo()
	w.specs = nil
	for _, p := range []point{
		{"example", 14400, asm.ModeMultiscalar, core.DefaultConfig(8, 2, true), ""},
		{"wc", 32768, asm.ModeMultiscalar, core.DefaultConfig(8, 2, true), ""},
	} {
		spec := p.spec()
		spec.Op = job.OpSampled
		id := rc.tr.begin("job.resolve", 0, p.workload)
		_, err := spec.Resolve()
		rc.tr.end(id)
		if err != nil {
			return err
		}
		w.specs = append(w.specs, spec)
	}
	w.secs = make([][]float64, len(w.specs))
	return nil
}

// reference runs each program exactly, once per process.
func (w *sampledLong) reference(rc *runCtx) error {
	start := time.Now()
	for _, s := range w.specs {
		exact := *s
		exact.Op = job.OpSimulate
		exact.Verify = true
		id := rc.tr.begin("job.execute", 0, s.Workload)
		out, err := job.Execute(&exact, nil)
		rc.tr.end(id)
		if err != nil {
			return fmt.Errorf("exact reference %s: %w", s.Workload, err)
		}
		w.exact = append(w.exact, out.Result)
	}
	w.refS = time.Since(start).Seconds()
	return nil
}

func (w *sampledLong) pass(rc *runCtx) (passResult, error) {
	if w.exact == nil {
		if err := w.reference(rc); err != nil {
			return passResult{}, err
		}
	}
	var out passResult
	ests := make([]*sample.Estimate, len(w.specs))
	root := rc.tr.begin("pass", 0, rc.name)
	start := time.Now()
	for i, spec := range w.specs {
		id := rc.tr.begin("sample.run", root, spec.Workload)
		t0 := time.Now()
		o, err := job.Execute(spec, nil)
		d := time.Since(t0).Seconds()
		rc.tr.end(id)
		if err != nil {
			rc.op(false, "sampling %s: %v", spec.Workload, err)
			return out, err
		}
		est, ref := o.Sampled, w.exact[i]
		rc.op(est.InCI(ref.Cycles) && est.Out == ref.Out && est.ExitCode == ref.ExitCode && !est.FullDetail,
			"%s: exact %d cycles outside the estimate's 95%% CI [%d, %d], or output differs", spec.Workload, ref.Cycles, est.CyclesLow, est.CyclesHi)
		out.cycles += est.EstCycles
		out.instrs += est.TotalInstrs
		out.jobs++
		ests[i] = est
		if rc.tr == nil {
			w.secs[i] = append(w.secs[i], d)
		}
	}
	out.wall = time.Since(start).Seconds()
	rc.tr.end(root)
	if rc.tr == nil {
		w.ests = ests
	}
	return out, nil
}

func (w *sampledLong) probes(rc *runCtx) error {
	var wall, exactCycles, detailed, errPct, half float64
	windows := 0
	for i, est := range w.ests {
		s := median(w.secs[i])
		rc.set("sample.run_ms."+w.specs[i].Workload, s*1e3)
		wall += s
		ref := float64(w.exact[i].Cycles)
		exactCycles += ref
		detailed += float64(est.DetailedCycles)
		windows += est.Windows
		errPct += math.Abs(est.ErrPct(w.exact[i].Cycles)) / float64(len(w.ests))
		half += 100 * float64(est.CyclesHi-est.CyclesLow) / 2 / float64(est.EstCycles) / float64(len(w.ests))
	}
	rc.set("sample.windows", float64(windows))
	rc.set("sample.detailed_cycles", detailed)
	rc.set("sample.detail_reduction", exactCycles/detailed)
	rc.set("sample.exact_ref_s", w.refS)
	rc.set("sample.wall_speedup", w.refS/wall)
	rc.set("sample.ci_halfwidth_pct", half)
	rc.set("sample.est_err_pct", errPct)

	// The sampler interprets every program twice (schedule pass, warming
	// pass): two bare interpreter passes over what one estimate costs.
	var progs []*isa.Program
	for _, spec := range w.specs {
		prog, err := spec.Resolve()
		if err != nil {
			return err
		}
		progs = append(progs, prog)
	}
	rc.set("sample.functional_share", 2*interpProbe(rc, progs)/wall)

	mid := *w.specs[0]
	mid.Op, mid.Scale = job.OpSimulate, 900
	ref, err := job.Execute(&mid, nil)
	if err != nil {
		return err
	}
	return snapshotProbe(rc, &mid, ref.Result.Cycles)
}
