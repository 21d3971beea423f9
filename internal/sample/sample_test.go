package sample_test

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"multiscalar/internal/asm"
	"multiscalar/internal/core"
	"multiscalar/internal/interp"
	"multiscalar/internal/isa"
	"multiscalar/internal/job"
	"multiscalar/internal/sample"
	"multiscalar/internal/workloads"
)

func buildMulti(t *testing.T, name string, scale int) *isa.Program {
	t.Helper()
	return build(t, name, asm.ModeMultiscalar, scale)
}

func build(t *testing.T, name string, mode asm.Mode, scale int) *isa.Program {
	t.Helper()
	w := workloads.Get(name)
	if w == nil {
		t.Fatalf("unknown workload %q", name)
	}
	p, err := w.Build(mode, scale)
	if err != nil {
		t.Fatalf("build %s: %v", name, err)
	}
	return p
}

// reference is the functional reference run Run's caller supplies (the
// job layer takes it from its oracle memo).
func reference(t testing.TB, p *isa.Program) sample.Functional {
	t.Helper()
	m := interp.NewMachine(p, interp.NewSysEnv())
	if err := m.Run(1 << 40); err != nil {
		t.Fatal(err)
	}
	return sample.Functional{TotalInstrs: m.ICount, TaskExits: m.TaskExits, Out: m.Env.Out.String(), ExitCode: m.Env.ExitCode}
}

func fullCycles(t *testing.T, p *isa.Program, cfg core.Config) uint64 {
	t.Helper()
	m, err := core.NewMultiscalar(p, interp.NewSysEnv(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res.Cycles
}

// TestFullDetailFallback: a run too short to sample must fall back to
// one exact detailed run reported as a zero-width interval.
func TestFullDetailFallback(t *testing.T) {
	p := buildMulti(t, "xlisp", workloads.Get("xlisp").TestScale)
	cfg := core.DefaultConfig(4, 1, false)
	est, err := sample.Run(p, cfg, sample.Params{}, nil, 1<<40, reference(t, p), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !est.FullDetail {
		t.Fatalf("expected full-detail fallback at test scale, got %d windows", est.Windows)
	}
	full := fullCycles(t, p, cfg)
	if est.EstCycles != full || est.CyclesLow != full || est.CyclesHi != full {
		t.Errorf("full-detail estimate %d [%d,%d], want exact %d",
			est.EstCycles, est.CyclesLow, est.CyclesHi, full)
	}
	if !est.InCI(full) {
		t.Error("exact cycles outside the (zero-width) CI")
	}
}

// TestSampledAccuracy: at a long-run scale, the sampled estimate of the
// two longest workloads must bracket the exact cycle count and pay at
// least 10× fewer detailed cycles — the acceptance bar the msbench
// -sampled -sample-gate 10 CI job enforces.
func TestSampledAccuracy(t *testing.T) {
	if testing.Short() {
		t.Skip("long-run sampled accuracy check")
	}
	cfg := core.DefaultConfig(8, 2, true)
	for _, tc := range []struct {
		name     string
		scaleMul int
	}{
		{"example", 16},
		{"wc", 16},
	} {
		p := buildMulti(t, tc.name, workloads.Get(tc.name).DefaultScale*tc.scaleMul)
		est, err := sample.Run(p, cfg, sample.Params{}, nil, 1<<40, reference(t, p), nil)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		full := fullCycles(t, p, cfg)
		if !est.InCI(full) {
			t.Errorf("%s: exact %d outside 95%% CI [%d, %d] (estimate %d, err %+.2f%%)",
				tc.name, full, est.CyclesLow, est.CyclesHi, est.EstCycles, est.ErrPct(full))
		}
		if red := est.DetailReduction(full); red < 10 {
			t.Errorf("%s: detailed-cycle reduction %.1fx, want >= 10x", tc.name, red)
		}
		if est.FullDetail {
			t.Errorf("%s: fell back to full detail at long-run scale", tc.name)
		}
	}
}

// TestCICoverageProperty: across seeded sampling offsets and table
// workloads, the exact cycle count must land inside the reported 95%
// confidence interval on at least 93% of trials (the SMARTS coverage
// property, with a small slack for the finite trial count).
func TestCICoverageProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("many sampled runs")
	}
	cfg := core.DefaultConfig(8, 2, true)
	rng := rand.New(rand.NewSource(1))
	const trialsPer = 6
	trials, covered := 0, 0
	for _, name := range []string{"compress", "eqntott", "gcc", "wc"} {
		p := buildMulti(t, name, workloads.Get(name).DefaultScale*8)
		full := fullCycles(t, p, cfg)
		// Derive the default regime once so seeded offsets stay inside the
		// first period (every offset shifts all windows together).
		ref := reference(t, p)
		base, err := sample.Run(p, cfg, sample.Params{}, nil, 1<<40, ref, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		period := base.Params.PeriodInstrs
		for i := 0; i < trialsPer; i++ {
			off := 1 + rng.Uint64()%period
			est, err := sample.Run(p, cfg, sample.Params{OffsetInstrs: off}, nil, 1<<40, ref, nil)
			if err != nil {
				t.Fatalf("%s offset %d: %v", name, off, err)
			}
			trials++
			if est.InCI(full) {
				covered++
			} else {
				t.Logf("%s offset=%d: exact %d outside [%d, %d] (est %d, err %+.2f%%)",
					name, off, full, est.CyclesLow, est.CyclesHi, est.EstCycles, est.ErrPct(full))
			}
		}
	}
	coverage := float64(covered) / float64(trials)
	t.Logf("CI coverage: %d/%d trials (%.1f%%)", covered, trials, 100*coverage)
	if coverage < 0.93 {
		t.Errorf("95%% CI covered the exact cycles on only %.1f%% of trials, want >= 93%%", 100*coverage)
	}
}

// TestSampledOracleOutput: the estimate's program-visible outcome comes
// from the functional reference and must match a real run exactly.
func TestSampledOracleOutput(t *testing.T) {
	p := buildMulti(t, "wc", workloads.Get("wc").DefaultScale)
	cfg := core.DefaultConfig(8, 2, true)
	est, err := sample.Run(p, cfg, sample.Params{}, nil, 1<<40, reference(t, p), nil)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.NewMultiscalar(p, interp.NewSysEnv(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if est.Out != res.Out || est.ExitCode != res.ExitCode {
		t.Errorf("sampled outcome (%q, %d) != detailed run (%q, %d)",
			est.Out, est.ExitCode, res.Out, res.ExitCode)
	}
	if est.TotalInstrs != res.Committed {
		t.Errorf("functional total %d != committed %d", est.TotalInstrs, res.Committed)
	}
}

// poolCase is one way of running the windows: no pool (each window
// inline at its capture point) or the job layer's at a given width.
type poolCase struct {
	name    string
	workers int // 0: nil pool
}

var poolCases = []poolCase{{"nil pool", 0}, {"RunJobs/1", 1}, {"RunJobs/2", 2}, {"RunJobs/8", 8}}

// runner sets the job pool's width and returns the Runner; callers
// restore the width with defer job.SetWorkers(job.Workers()).
func (pc poolCase) runner() sample.Runner {
	if pc.workers == 0 {
		return nil
	}
	job.SetWorkers(pc.workers)
	return job.RunJobs
}

// pipelineCase is a small program sampled densely enough (an explicit
// regime) that a dozen or more windows are in flight while warming
// continues.
type pipelineCase struct {
	name string
	p    *isa.Program
	cfg  core.Config
	prm  sample.Params
}

func pipelineCases(t *testing.T) []pipelineCase {
	return []pipelineCase{
		{"example/8u", buildMulti(t, "example", 450), core.DefaultConfig(8, 2, true),
			sample.Params{WarmupInstrs: 300, WindowInstrs: 600, PeriodInstrs: 16000, OffsetInstrs: 12000}},
		{"wc/scalar", build(t, "wc", asm.ModeScalar, 1024), core.DefaultConfig(1, 2, false),
			sample.Params{WarmupInstrs: 500, WindowInstrs: 1000, PeriodInstrs: 24000}},
	}
}

// TestPipelineMatchesSerial: the estimate is a function of the program,
// the configuration and the regime only — never of who runs the windows,
// how many at once, or in which order they finish.
func TestPipelineMatchesSerial(t *testing.T) {
	defer job.SetWorkers(job.Workers())
	for _, tc := range pipelineCases(t) {
		ref := reference(t, tc.p)
		var serial *sample.Estimate
		for _, pc := range poolCases {
			est, err := sample.Run(tc.p, tc.cfg, tc.prm, nil, 1<<40, ref, pc.runner())
			if err != nil {
				t.Fatalf("%s, %s: %v", tc.name, pc.name, err)
			}
			if est.FullDetail || est.Windows < 12 {
				t.Fatalf("%s, %s: %d windows (full detail %v); the case must sample", tc.name, pc.name, est.Windows, est.FullDetail)
			}
			if serial == nil {
				serial = est
			} else if !reflect.DeepEqual(est, serial) {
				t.Errorf("%s: estimate under %s differs from the inline run:\n%+v\n%+v", tc.name, pc.name, est, serial)
			}
		}
	}
}

// TestSampledEstimatesPinned: the whole Estimate of the two msbench
// -sampled rows (example and wc at 16x table scale, 8 units 2-way
// out-of-order, default regime), byte for byte as recorded at the commit
// before the sampler became a pipeline; and of three scalar-baseline
// runs (scalar builds at 64x test scale on ScalarConfig(2, true) —
// windows that start mid-program, tomcatv's with the FP condition flag
// to seed), as recorded from the separate scalar machine at the commit
// before it was deleted. The schedule, every snapshot a window starts
// from and the estimator are all inside these bytes.
func TestSampledEstimatesPinned(t *testing.T) {
	type pinned struct {
		file, name string
		mode       asm.Mode
		scale      int
		cfg        core.Config
	}
	var cases []pinned
	for _, name := range []string{"example", "wc"} {
		scale := workloads.Get(name).DefaultScale * 16
		cases = append(cases, pinned{fmt.Sprintf("estimate_%s_%d.json", name, scale),
			name, asm.ModeMultiscalar, scale, core.DefaultConfig(8, 2, true)})
	}
	for _, name := range []string{"wc", "tomcatv", "example"} {
		scale := workloads.Get(name).TestScale * 64
		cases = append(cases, pinned{fmt.Sprintf("estimate_scalar_%s_%d.json", name, scale),
			name, asm.ModeScalar, scale, core.ScalarConfig(2, true)})
	}
	for _, tc := range cases {
		want, err := os.ReadFile("testdata/" + tc.file)
		if err != nil {
			t.Fatal(err)
		}
		p := build(t, tc.name, tc.mode, tc.scale)
		est, err := sample.Run(p, tc.cfg, sample.Params{}, nil, 1<<40, reference(t, p), job.RunJobs)
		if err != nil {
			t.Fatalf("%s: %v", tc.file, err)
		}
		if est.FullDetail {
			t.Errorf("%s: fell back to full detail; the recording samples", tc.file)
		}
		got, err := json.Marshal(est)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != strings.TrimSpace(string(want)) {
			t.Errorf("%s: estimate moved\n got %s\nwant %s", tc.file, got, want)
		}
	}
}

// TestSampleRunErrorPaths: a failing warming pass and a failing window
// each return the same error under every pool — the warming pass's own
// error first, else the lowest-index window's, which is by construction
// what the inline run reports — and leave no goroutine behind.
func TestSampleRunErrorPaths(t *testing.T) {
	defer job.SetWorkers(job.Workers())
	settled := func(baseline int) bool {
		for wait := time.Duration(0); wait < time.Second; wait += time.Millisecond {
			if runtime.NumGoroutine() <= baseline {
				return true
			}
			time.Sleep(time.Millisecond)
		}
		return false
	}
	for _, tc := range pipelineCases(t) {
		ref := reference(t, tc.p)
		clean, err := sample.Run(tc.p, tc.cfg, tc.prm, nil, 1<<40, ref, nil)
		if err != nil {
			t.Fatal(err)
		}
		// A cycle bound that the first window meets and a later one does
		// not: start at the mean detailed cost, raise until the inline run's
		// failing window is not the first.
		tight := tc.cfg
		mean := clean.DetailedCycles / uint64(clean.Windows)
		for tight.MaxCycles = mean; ; tight.MaxCycles += mean / 50 {
			_, err := sample.Run(tc.p, tight, tc.prm, nil, 1<<40, ref, nil)
			if err == nil {
				t.Fatalf("%s: no cycle bound fails a window other than the first", tc.name)
			}
			var k int
			if fmt.Sscanf(err.Error(), "sample: window %d:", &k); k >= 1 {
				break
			}
		}

		for _, fail := range []struct {
			what      string
			cfg       core.Config
			maxInstrs uint64
			want      string
		}{
			{"warming pass out of instructions", tc.cfg, ref.TotalInstrs / 2, "interp: exceeded"},
			{"window out of cycles", tight, 1 << 40, "sample: window "},
			{"both", tight, ref.TotalInstrs / 2, "interp: exceeded"},
		} {
			var inline string
			for i, pc := range poolCases {
				pool := pc.runner()
				baseline := runtime.NumGoroutine()
				est, err := sample.Run(tc.p, fail.cfg, tc.prm, nil, fail.maxInstrs, ref, pool)
				if err == nil {
					t.Fatalf("%s, %s, %s: no error (estimate %+v)", tc.name, fail.what, pc.name, est)
				}
				if !strings.HasPrefix(err.Error(), fail.want) {
					t.Errorf("%s, %s, %s: error %q, want prefix %q", tc.name, fail.what, pc.name, err, fail.want)
				}
				if i == 0 {
					inline = err.Error()
				} else if err.Error() != inline {
					t.Errorf("%s, %s: %s reports %q, the inline run %q", tc.name, fail.what, pc.name, err, inline)
				}
				if !settled(baseline) {
					t.Errorf("%s, %s, %s: %d goroutines left, %d before the run", tc.name, fail.what, pc.name, runtime.NumGoroutine(), baseline)
				}
			}
		}
	}
}
