package bench

import (
	"encoding/json"
	"runtime"
	"time"

	"multiscalar/internal/job"
)

// Section is one timed section of a benchmark-harness invocation. The
// sections run as one fan-out and overlap, so Seconds is the time from
// the previous section's output being ready to this one's (RunSections):
// the sections of a report sum to the fan-out's wall time.
type Section struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
}

// Report is the machine-readable timing/throughput record msbench -json
// emits. Checked-in BENCH_*.json files built from it form the
// performance trajectory of the harness itself: compare Seconds and the
// throughput fields across baselines recorded on the same host.
type Report struct {
	Timestamp  string `json:"timestamp"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workers    int    `json:"workers"`
	Scale      string `json:"scale"` // "full" or "quick"

	Sections     []Section `json:"sections"`
	TotalSeconds float64   `json:"total_seconds"`

	// Simulated work completed, summed over every verified timing run.
	// SimCycles counts simulated machine cycles; SimCyclesTicked counts the
	// cycles the timing loops actually executed — the difference is what
	// the wakeup scheduler skipped (docs/perf.md), and CycleSkipRatio is
	// that difference as a fraction of SimCycles.
	SimRuns         uint64  `json:"sim_runs"`
	SimCycles       uint64  `json:"sim_cycles"`
	SimCyclesTicked uint64  `json:"sim_cycles_ticked"`
	CycleSkipRatio  float64 `json:"cycle_skip_ratio"`
	SimInstructions uint64  `json:"sim_instructions"`
	// Program builds that actually ran (misses of job's program store).
	Builds uint64 `json:"builds"`
	// Simulation points answered from the result store instead of being
	// simulated again (docs/perf.md); the field keeps its historical name.
	RunsRestored uint64 `json:"runs_restored"`
	// Sampled-simulation work (docs/perf.md, "Sampled simulation"):
	// estimates produced, detailed windows measured across them, and the
	// mean per-estimate CPI variance of the window populations.
	RunsSampled       uint64  `json:"runs_sampled"`
	SampledWindows    uint64  `json:"sampled_windows"`
	SampledMeanVarCPI float64 `json:"sampled_mean_var_cpi"`

	// Throughput of the simulators themselves over the whole invocation.
	MSimCyclesPerSec float64 `json:"msim_cycles_per_sec"`
	MIPS             float64 `json:"mips"` // committed simulated instrs/sec, millions
}

// NewReport starts a report for the current process configuration.
func NewReport(scale Scale) *Report {
	name := "full"
	if scale != 0 {
		name = "quick"
	}
	return &Report{
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers:    job.Workers(),
		Scale:      name,
	}
}

// Finalize fills the totals and throughput fields from the process-wide
// simulation counters and returns the indented JSON encoding.
func (r *Report) Finalize() ([]byte, error) {
	r.TotalSeconds = 0
	for _, s := range r.Sections {
		r.TotalSeconds += s.Seconds
	}
	r.SimRuns, r.SimCycles, r.SimInstructions = SimTotals()
	r.SimCyclesTicked = SimTicked()
	if r.SimCycles > 0 {
		r.CycleSkipRatio = float64(r.SimCycles-r.SimCyclesTicked) / float64(r.SimCycles)
	}
	r.Builds = BuildsPerformed()
	r.RunsRestored = RunsRestored()
	r.RunsSampled, r.SampledWindows, r.SampledMeanVarCPI = SampledTotals()
	if r.TotalSeconds > 0 {
		r.MSimCyclesPerSec = float64(r.SimCycles) / r.TotalSeconds / 1e6
		r.MIPS = float64(r.SimInstructions) / r.TotalSeconds / 1e6
	}
	return json.MarshalIndent(r, "", "  ")
}
