package bench

import (
	"errors"
	"reflect"
	"sync"
	"testing"

	"multiscalar/internal/asm"
	"multiscalar/internal/core"
	"multiscalar/internal/isa"
	"multiscalar/internal/job"
	"multiscalar/internal/workloads"
)

// resetMemo drops the harness's results and job's build/oracle stores,
// so the next run simulates instead of answering from a store.
func resetMemo() {
	results.Reset()
	job.ResetBuildMemo()
}

// withWorkers runs the body under a specific pool bound, restoring the
// process-wide setting afterwards.
func withWorkers(t *testing.T, n int, fn func()) {
	t.Helper()
	old := job.Workers()
	job.SetWorkers(n)
	defer job.SetWorkers(old)
	fn()
}

func TestMemoReturnsIdenticalProgram(t *testing.T) {
	resetMemo()
	w := workloads.Get("wc")
	if w == nil {
		t.Fatal("workload wc missing")
	}
	before := BuildsPerformed()
	p1, o1, err := buildOracle(w, asm.ModeMultiscalar, -1)
	if err != nil {
		t.Fatal(err)
	}
	p2, o2, err := buildOracle(w, asm.ModeMultiscalar, -1)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("memo hit returned a different *isa.Program")
	}
	if o1 != o2 {
		t.Errorf("memo hit returned a different oracle: %+v vs %+v", o1, o2)
	}
	if got := BuildsPerformed() - before; got != 1 {
		t.Errorf("builds performed = %d, want 1", got)
	}
	// A different key builds again.
	if _, _, err := buildOracle(w, asm.ModeScalar, -1); err != nil {
		t.Fatal(err)
	}
	if got := BuildsPerformed() - before; got != 2 {
		t.Errorf("builds performed = %d, want 2", got)
	}
}

// TestMemoSingleFlight races many first requests for the same key: exactly
// one build must run, and every caller must share its result. Run under
// -race in CI.
func TestMemoSingleFlight(t *testing.T) {
	resetMemo()
	w := workloads.Get("cmp")
	if w == nil {
		t.Fatal("workload cmp missing")
	}
	before := BuildsPerformed()
	const goroutines = 16
	progs := make([]*isa.Program, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			progs[i], _, errs[i] = buildOracle(w, asm.ModeMultiscalar, -1)
		}(i)
	}
	wg.Wait()
	for i := 0; i < goroutines; i++ {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		if progs[i] != progs[0] {
			t.Errorf("goroutine %d got a different *isa.Program", i)
		}
	}
	if got := BuildsPerformed() - before; got != 1 {
		t.Errorf("builds performed = %d, want 1 (single flight)", got)
	}
}

// TestParallelMatchesSequential is the determinism contract: every table
// and sweep must format byte-identically whether jobs run on 1 worker or
// many, regardless of completion order.
func TestParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every table twice")
	}
	sections := map[string]func() (string, error){
		"table2": func() (string, error) {
			rows, err := Table2(-1)
			return FormatTable2(rows), err
		},
		"perftable": func() (string, error) {
			rows, err := PerfTable(1, false, -1)
			return FormatPerfTable("t", rows), err
		},
		"breakdown": func() (string, error) {
			rows, err := Breakdown(4, -1)
			return FormatBreakdown(rows), err
		},
		"curves": func() (string, error) {
			curves, err := SpeedupCurves(1, false, -1, []int{2, 4, 8})
			return FormatCurves("c", curves), err
		},
		"mixes": func() (string, error) {
			rows, err := Mixes(-1)
			return FormatMixes(rows), err
		},
		"unitsweep": func() (string, error) {
			rows, err := UnitSweep("cmp", -1, []int{1, 2, 4, 8})
			return FormatAblation("u", rows), err
		},
		"ringsweep": func() (string, error) {
			rows, err := RingLatencySweep("compress", -1, []int{0, 1, 4})
			return FormatAblation("r", rows), err
		},
		"arbsweep": func() (string, error) {
			rows, err := ARBSweep("tomcatv", -1, []int{2, 256})
			return FormatAblation("a", rows), err
		},
		"forwarding": func() (string, error) {
			rows, err := ForwardingAblation("wc", -1)
			return FormatAblation("f", rows), err
		},
		"predictor": func() (string, error) {
			rows, err := PredictorAblation("gcc", -1)
			return FormatAblation("p", rows), err
		},
		"sharedfu": func() (string, error) {
			rows, err := SharedFUAblation("tomcatv", -1)
			return FormatAblation("s", rows), err
		},
	}
	for name, section := range sections {
		t.Run(name, func(t *testing.T) {
			var seq, par string
			var err error
			// Cold stores on both sides, so the parallel pass simulates
			// (and single-flights) instead of reading back the sequential
			// pass's results.
			resetMemo()
			withWorkers(t, 1, func() { seq, err = section() })
			if err != nil {
				t.Fatal(err)
			}
			resetMemo()
			withWorkers(t, 8, func() { par, err = section() })
			if err != nil {
				t.Fatal(err)
			}
			if seq != par {
				t.Errorf("parallel output differs from sequential:\n--- seq ---\n%s--- par ---\n%s", seq, par)
			}
		})
	}
}

// TestConcurrentWorkloadsEndToEnd drives two different workloads through
// the full path — assemble, functional oracle, timing simulation, oracle
// verification — at the same time. Backed by -race in CI, it is the
// shared-state audit for workloads.Workload.Build and interp.NewSysEnv.
func TestConcurrentWorkloadsEndToEnd(t *testing.T) {
	resetMemo()
	names := []string{"wc", "tomcatv", "cmp", "compress"}
	var wg sync.WaitGroup
	errs := make([]error, len(names))
	for i, name := range names {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			w := workloads.Get(name)
			if w == nil {
				errs[i] = errors.New(name + " missing")
				return
			}
			for units := 1; units <= 4; units *= 4 {
				if _, err := runOne(w, -1, units, 1, false); err != nil {
					errs[i] = err
					return
				}
			}
		}(i, name)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("%s: %v", names[i], err)
		}
	}
}

func TestCloneProgramIsolatesText(t *testing.T) {
	resetMemo()
	w := workloads.Get("wc")
	p, _, err := buildOracle(w, asm.ModeMultiscalar, -1)
	if err != nil {
		t.Fatal(err)
	}
	q := p.Clone()
	if len(q.Text) == 0 || &q.Text[0] == &p.Text[0] {
		t.Fatal("clone shares Text backing array")
	}
	orig := p.Text[0]
	q.Text[0].Fwd = !q.Text[0].Fwd
	if p.Text[0] != orig {
		t.Error("mutating the clone changed the memoized program")
	}
}

// TestRunSharingMatchesIsolated pins what the result store promises: a
// duplicate simulation point, answered with the first run's stored
// Result, is identical to a fresh, isolated job.Execute of the same point
// outside the store, and counts as one restored run.
func TestRunSharingMatchesIsolated(t *testing.T) {
	resetMemo()
	w := workloads.Get("wc")
	if w == nil {
		t.Fatal("workload wc missing")
	}
	spec := pointSpec(w, asm.ModeMultiscalar, -1)
	cfg := core.DefaultConfig(4, 1, false)

	runsBefore, _, _ := SimTotals()
	first, err := runPoint(spec, cfg, "first point")
	if err != nil {
		t.Fatal(err)
	}
	before := RunsRestored()
	dup, err := runPoint(spec, cfg, "duplicate point")
	if err != nil {
		t.Fatal(err)
	}
	if got := RunsRestored() - before; got != 1 {
		t.Fatalf("RunsRestored delta = %d, want 1 (duplicate must be a store hit)", got)
	}
	if runs, _, _ := SimTotals(); runs-runsBefore != 1 {
		t.Fatalf("SimTotals runs delta = %d, want 1 (the duplicate must not simulate)", runs-runsBefore)
	}

	// Isolated reference: the same point through job.Execute, outside the
	// store.
	spec.Config = cfg
	out, err := job.Execute(&spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dup, out.Result) {
		t.Errorf("stored duplicate diverges from isolated run:\nstored:   %+v\nisolated: %+v", dup, out.Result)
	}
	if first != dup {
		t.Error("duplicate point was not answered with the stored Result")
	}
}
