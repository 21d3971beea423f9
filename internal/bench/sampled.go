package bench

import (
	"fmt"
	"strings"
	"sync"

	"multiscalar/internal/asm"
	"multiscalar/internal/core"
	"multiscalar/internal/job"
	"multiscalar/internal/sample"
	"multiscalar/internal/workloads"
)

// Sampled-simulation accuracy section (docs/perf.md, "Sampled
// simulation"): run the suite's two longest workloads both exactly and
// sampled at a long-run scale, and report the estimate's error, whether
// the exact cycle count lands inside the 95% confidence interval, and
// how many detailed cycles sampling avoided. The section is not part of
// -all so the -all output stays byte-identical with the sampling engine
// present but unused.

// sampledWorkloads names the two longest table workloads by multiscalar
// dynamic instruction count at default scale (example ~378k, wc ~160k)
// — the runs where the paper-table harness spends its cycles and where
// the ≥10× detailed-cycle reduction claim is made.
var sampledWorkloads = []string{"example", "wc"}

// sampledScaleFactor stretches each workload's resolved scale for this
// section. Sampling pays off on long runs (SMARTS targets billions of
// instructions); at the suite's table scales the engine's own fallback
// would correctly refuse to sample most workloads, so the accuracy
// comparison is made in the regime the estimator is built for.
const sampledScaleFactor = 16

// SampledRow compares one workload's exact run against its sampled
// estimate at the same scale and configuration.
type SampledRow struct {
	Name        string
	Scale       int // resolved scale the comparison ran at
	TotalInstrs uint64

	FullCycles uint64
	EstCycles  uint64
	CyclesLow  uint64
	CyclesHi   uint64

	Windows    int
	FullDetail bool
	MeanCPI    float64
	VarCPI     float64
	StdErrCPI  float64

	ErrPct    float64 // signed estimate error vs the exact run
	InCI      bool    // exact cycles inside the 95% CI
	Reduction float64 // full cycles / detailed cycles simulated

	Params sample.Params
}

// RunSampled runs the sampled-vs-exact comparison on 8 2-way
// out-of-order units (the paper's headline configuration). A row's exact
// run and its estimate are independent jobs, and all of them fan out
// over the worker budget at once; each estimate's detailed windows fan
// out again inside it.
func RunSampled(scale Scale) ([]SampledRow, error) {
	specs := make([]job.Spec, len(sampledWorkloads))
	for i, name := range sampledWorkloads {
		w := workloads.Get(name)
		if w == nil {
			return nil, fmt.Errorf("sampled: unknown workload %q", name)
		}
		specs[i] = pointSpec(w, asm.ModeMultiscalar, Scale(scale.of(w)*sampledScaleFactor))
		specs[i].Config = core.DefaultConfig(8, 2, true)
	}
	full := make([]*core.Result, len(specs))
	ests := make([]*sample.Estimate, len(specs))
	err := job.RunJobs(2*len(specs), func(j int) (err error) { // job 2i: row i exact, 2i+1: sampled
		spec := specs[j/2]
		if j%2 == 0 {
			full[j/2], err = runPoint(spec, spec.Config,
				fmt.Sprintf("%s sampled-baseline scale=%d", spec.Workload, spec.Scale))
			return err
		}
		// The same job, sampled: the functional pass is its own oracle.
		spec.Op, spec.Verify = job.OpSampled, false
		applyRunFlags(&spec.Config)
		out, err := job.Execute(&spec, nil)
		if err != nil {
			return fmt.Errorf("%s: %w", spec.Workload, err)
		}
		ests[j/2] = out.Sampled
		return nil
	})
	if err != nil {
		return nil, err
	}
	rows := make([]SampledRow, len(specs))
	for i, est := range ests {
		recordSampled(est) // in row order, so the variance sum is too
		rows[i] = SampledRow{
			Name:        specs[i].Workload,
			Scale:       specs[i].Scale,
			TotalInstrs: est.TotalInstrs,
			FullCycles:  full[i].Cycles,
			EstCycles:   est.EstCycles,
			CyclesLow:   est.CyclesLow,
			CyclesHi:    est.CyclesHi,
			Windows:     est.Windows,
			FullDetail:  est.FullDetail,
			MeanCPI:     est.MeanCPI,
			VarCPI:      est.VarCPI,
			StdErrCPI:   est.StdErrCPI,
			ErrPct:      est.ErrPct(full[i].Cycles),
			InCI:        est.InCI(full[i].Cycles),
			Reduction:   est.DetailReduction(full[i].Cycles),
			Params:      est.Params,
		}
	}
	return rows, nil
}

// FormatSampled renders the sampled-vs-exact comparison.
func FormatSampled(rows []SampledRow) string {
	var b strings.Builder
	b.WriteString("Sampled simulation: exact vs estimated cycles (8 units, 2-way out-of-order)\n")
	fmt.Fprintf(&b, "  %-10s %9s %10s %10s  %-23s %3s %7s %5s %9s\n",
		"workload", "instrs", "exact", "estimate", "95% CI", "win", "err", "inCI", "detail")
	for _, r := range rows {
		note := ""
		if r.FullDetail {
			note = "  (full detail: run too short to sample)"
		}
		fmt.Fprintf(&b, "  %-10s %9d %10d %10d  [%10d,%10d] %3d %+6.2f%% %5v %8.1fx%s\n",
			r.Name, r.TotalInstrs, r.FullCycles, r.EstCycles, r.CyclesLow, r.CyclesHi,
			r.Windows, r.ErrPct, r.InCI, r.Reduction, note)
	}
	return b.String()
}

// GateSampled returns one line per row failing the accuracy/speed gate:
// the exact cycle count outside the 95% CI, or a detailed-cycle
// reduction below minReduction. Empty means every row passed — the CI
// sample-accuracy job's pass condition.
func GateSampled(rows []SampledRow, minReduction float64) []string {
	var fails []string
	for _, r := range rows {
		if !r.InCI {
			fails = append(fails, fmt.Sprintf(
				"%s: exact %d cycles outside the 95%% CI [%d, %d] (estimate %d, err %+.2f%%)",
				r.Name, r.FullCycles, r.CyclesLow, r.CyclesHi, r.EstCycles, r.ErrPct))
		}
		if r.Reduction < minReduction {
			fails = append(fails, fmt.Sprintf(
				"%s: detailed-cycle reduction %.1fx below the %.1fx gate",
				r.Name, r.Reduction, minReduction))
		}
	}
	return fails
}

// Sampled-run observability for the JSON report: how many sampled
// estimates were produced, their total window count, and the mean
// estimator variance (a drift canary: variance creeping up means the
// windows disagree more than they used to).
var (
	sampledMu      sync.Mutex
	sampledRuns    uint64
	sampledWindows uint64
	sampledVarSum  float64
)

func recordSampled(e *sample.Estimate) {
	sampledMu.Lock()
	sampledRuns++
	sampledWindows += uint64(e.Windows)
	sampledVarSum += e.VarCPI
	sampledMu.Unlock()
}

// SampledTotals reports the cumulative sampled-simulation work of this
// process: estimates produced, detailed windows measured, and the mean
// per-estimate CPI variance.
func SampledTotals() (runs, windows uint64, meanVar float64) {
	sampledMu.Lock()
	defer sampledMu.Unlock()
	if sampledRuns > 0 {
		meanVar = sampledVarSum / float64(sampledRuns)
	}
	return sampledRuns, sampledWindows, meanVar
}
