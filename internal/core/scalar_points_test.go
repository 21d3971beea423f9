package core

import (
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"

	"multiscalar/internal/asm"
	"multiscalar/internal/interp"
	"multiscalar/internal/pu"
	"multiscalar/internal/trace"
	"multiscalar/internal/workloads"
)

// scalarPoints recomputes the scalar-baseline recording: every workload
// (extras included) at test scale on the scalar configuration, both issue
// widths and orders, sleeping and dense. One line per run.
func scalarPoints(t *testing.T) []string {
	var lines []string
	for _, name := range workloads.Names() {
		w := workloads.Get(name)
		p, err := w.Build(asm.ModeScalar, w.TestScale)
		if err != nil {
			t.Fatal(err)
		}
		for _, width := range []int{1, 2} {
			for _, ooo := range []bool{false, true} {
				for _, noSkip := range []bool{false, true} {
					cfg := ScalarConfig(width, ooo)
					cfg.NoSkip = noSkip
					res, err := newScalarMachine(t, p, cfg).Run()
					if err != nil {
						t.Fatalf("%s %d-way ooo=%v noskip=%v: %v", name, width, ooo, noSkip, err)
					}
					a := res.Activity
					lines = append(lines, fmt.Sprintf(
						"%s %dw ooo=%v noskip=%v cycles=%d ticked=%d committed=%d act=%d/%d/%d/%d/%d imiss=%d dmiss=%d bus=%d out=%x",
						name, width, ooo, noSkip, res.Cycles, res.CyclesTicked, res.Committed,
						a[pu.ActIdle], a[pu.ActCompute], a[pu.ActWaitPred], a[pu.ActWaitIntra], a[pu.ActWaitRetire],
						res.ICacheMisses, res.DCacheMisses, res.BusRequests, sha256.Sum256([]byte(res.Out))))
					if res.TasksSquashed+res.ARBAllocs+res.ARBOverflows+res.ARBStoreForwards+res.RingSends+res.Predictions != 0 {
						t.Errorf("%s: a scalar run reports multiscalar activity: %+v", name, res)
					}
				}
			}
		}
	}
	return lines
}

// readRecording returns the non-comment lines of a testdata recording.
func readRecording(t *testing.T, path string) []string {
	t.Helper()
	rec, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, line := range strings.Split(strings.TrimSpace(string(rec)), "\n") {
		if line != "" && !strings.HasPrefix(line, "#") {
			lines = append(lines, line)
		}
	}
	return lines
}

// TestScalarPointsPinned: the scalar baseline is a configuration of the
// one machine (DESIGN §4), and every figure it reports equals what the
// separate scalar machine reported at the commit that last had one.
func TestScalarPointsPinned(t *testing.T) {
	want := readRecording(t, "testdata/scalar_points.txt")
	got := scalarPoints(t)
	if len(got) != len(want) {
		t.Errorf("%d points run, %d recorded", len(got), len(want))
	}
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			t.Errorf("scalar point moved\n got %s\nwant %s", got[i], want[i])
		}
	}
	if t.Failed() {
		t.Logf("recomputed recording:\n%s", strings.Join(got, "\n"))
	}
}

// TestScalarEventStreamPinned: a traced scalar run (compress, 2-way
// out-of-order) emits the stream the separate scalar machine emitted —
// recorded as a count and a hash with the head and tail spelled out —
// plus the task-activity events every retiring task folds, which is what
// lets mstrace -metrics decompose a scalar run. No ring, squash, ARB or
// descriptor-cache event appears. One stamp differs: the separate machine
// emitted its single task-retire after counting the exit cycle, the one
// machine stamps every retire with the cycle it happens in, so the event
// is compared one cycle on.
func TestScalarEventStreamPinned(t *testing.T) {
	w := workloads.Get("compress")
	p, err := w.Build(asm.ModeScalar, w.TestScale)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ScalarConfig(2, true)
	col := &trace.Collector{}
	cfg.Sink = col
	res, err := newScalarMachine(t, p, cfg).Run()
	if err != nil {
		t.Fatal(err)
	}
	var stream []string
	var folds int
	var folded uint64
	for _, e := range col.Events {
		switch e.Kind {
		case trace.KTaskActivity:
			folds++
			folded += e.Arg2
			continue
		case trace.KTaskRetire:
			if e.Cycle != res.Cycles-1 {
				t.Errorf("task-retire at cycle %d of a %d-cycle run", e.Cycle, res.Cycles)
			}
			e.Cycle++
		case trace.KRingSend, trace.KTaskSquash, trace.KARBAlloc, trace.KARBOverflow, trace.KARBViolation, trace.KDescMiss:
			t.Errorf("scalar run emitted %v", e)
		}
		stream = append(stream, fmt.Sprintf("%d %v u%d t%d %d %d", e.Cycle, e.Kind, e.Unit, e.Task, e.Arg, e.Arg2))
	}
	if folds != 2 || folded != res.Cycles {
		t.Errorf("%d task-activity events fold %d unit-cycles; want two covering the run's %d cycles", folds, folded, res.Cycles)
	}
	got := []string{fmt.Sprintf("events=%d sha256=%x", len(stream), sha256.Sum256([]byte(strings.Join(stream, "\n"))))}
	got = append(got, stream[:4]...)
	got = append(got, stream[len(stream)-3:]...)
	want := readRecording(t, "testdata/scalar_events_compress.txt")
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("scalar event stream moved\n got:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestImplicitTaskCostsNoFetch: the implicit task's descriptor is the
// machine's own, so assigning it touches no descriptor cache and the
// first instruction issues at the cycle it issued on the separate scalar
// machine (15: the cold instruction-cache fill, then the pipeline) — a
// task whose descriptor is in the binary starts a cold fetch later.
func TestImplicitTaskCostsNoFetch(t *testing.T) {
	firstIssue := func(mode asm.Mode) (cycle uint64, descMisses int) {
		w := workloads.Get("wc")
		p, err := w.Build(mode, w.TestScale)
		if err != nil {
			t.Fatal(err)
		}
		cfg := ScalarConfig(2, true)
		col := &trace.Collector{}
		cfg.Sink = col
		m, err := NewMultiscalar(p, interp.NewSysEnv(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		cycle = ^uint64(0)
		for _, e := range col.Events {
			switch {
			case e.Kind == trace.KDescMiss:
				descMisses++
			case e.Kind == trace.KTaskFirstIssue && e.Cycle < cycle:
				cycle = e.Cycle
			}
		}
		return cycle, descMisses
	}
	if cycle, misses := firstIssue(asm.ModeScalar); cycle != 15 || misses != 0 {
		t.Errorf("implicit task: first issue at cycle %d after %d descriptor misses, want 15 and none", cycle, misses)
	}
	if cycle, misses := firstIssue(asm.ModeMultiscalar); cycle <= 15 || misses == 0 {
		t.Errorf("task from the binary: first issue at cycle %d after %d descriptor misses, want a cold fetch first", cycle, misses)
	}
}
