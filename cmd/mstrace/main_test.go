package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"multiscalar"
	"multiscalar/internal/arb"
	"multiscalar/internal/job"
	"multiscalar/internal/trace"
)

// cycleConfigs are the machines cycles_hashes.txt names.
var cycleConfigs = map[string]multiscalar.Config{
	"4u-1w-stall": multiscalar.DefaultConfig(4, 1, false),
	"8u-2w-ooo-sq1": func() multiscalar.Config {
		c := multiscalar.DefaultConfig(8, 2, true)
		c.ARBPolicy = arb.PolicySquash
		c.ARBEntries = 1
		return c
	}(),
}

type cyclesRef struct {
	workload, config, sum string
	lines                 int
}

// cyclesRefs reads testdata/cycles_hashes.txt: the per-cycle output the
// simulator's own per-cycle tracer printed before -cycles replaced it.
func cyclesRefs(t *testing.T) []cyclesRef {
	t.Helper()
	f, err := os.Open("testdata/cycles_hashes.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var refs []cyclesRef
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fs := strings.Fields(line)
		if len(fs) != 4 {
			t.Fatalf("malformed reference line %q", line)
		}
		n, err := strconv.Atoi(fs[3])
		if err != nil {
			t.Fatal(err)
		}
		refs = append(refs, cyclesRef{fs[0], fs[1], fs[2], n})
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return refs
}

func cyclesOf(t *testing.T, tr *trace.Trace) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := renderCycles(&b, tr); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func (r cyclesRef) check(t *testing.T, how string, out []byte) {
	t.Helper()
	if sum := fmt.Sprintf("%x", sha256.Sum256(out)); sum != r.sum {
		t.Errorf("%s %s (%s): -cycles sha256 %s, %d lines; recorded %s, %d lines",
			r.workload, r.config, how, sum, bytes.Count(out, []byte("\n")), r.sum, r.lines)
	}
}

// TestCyclesMatchRecordedTracer renders -cycles from the event stream of
// a sleeping run — idle units not ticked, whole stretches of cycles
// jumped — and requires every line the dense per-cycle tracer printed.
// The NoSkip run's stream must render identically.
func TestCyclesMatchRecordedTracer(t *testing.T) {
	refs := cyclesRefs(t)
	if len(refs) != 2*len(multiscalar.WorkloadNames()) {
		t.Fatalf("%d reference lines for %d workloads", len(refs), len(multiscalar.WorkloadNames()))
	}
	sawSkip := false
	for _, r := range refs {
		w := multiscalar.GetWorkload(r.workload)
		cfg, ok := cycleConfigs[r.config]
		if w == nil || !ok {
			t.Fatalf("unknown workload or config in %+v", r)
		}
		prog, err := w.Build(multiscalar.ModeMultiscalar, w.TestScale)
		if err != nil {
			t.Fatal(err)
		}
		render := func(noskip bool) (*multiscalar.Result, []byte) {
			c := cfg
			c.NoSkip = noskip
			col := &multiscalar.TraceCollector{}
			res, err := multiscalar.Run(prog, c, multiscalar.WithTrace(col), multiscalar.WithVerify())
			if err != nil {
				t.Fatalf("%s %s: %v", r.workload, r.config, err)
			}
			return res, cyclesOf(t, &trace.Trace{Meta: trace.Meta{NumUnits: c.NumUnits}, Events: col.Events})
		}
		res, sleep := render(false)
		sawSkip = sawSkip || res.CyclesTicked < res.Cycles
		r.check(t, "sleeping run", sleep)
		if _, dense := render(true); !bytes.Equal(dense, sleep) {
			t.Errorf("%s %s: the NoSkip stream renders differently from the sleeping one", r.workload, r.config)
		}
	}
	if !sawSkip {
		t.Error("no run jumped a cycle: the streams were not recorded by sleeping runs")
	}
}

// TestCyclesFromServedJob renders the .mstrc bytes a job returns for
// WantTrace — what msserve hands out for want_trace.
func TestCyclesFromServedJob(t *testing.T) {
	var ref cyclesRef
	for _, r := range cyclesRefs(t) {
		if r.workload == "example" && r.config == "4u-1w-stall" {
			ref = r
		}
	}
	w := multiscalar.GetWorkload("example")
	out, err := job.Execute(&job.Spec{Op: job.OpSimulate, Workload: "example", Scale: w.TestScale,
		Mode: multiscalar.ModeMultiscalar, Config: cycleConfigs[ref.config], WantTrace: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := multiscalar.ReadTrace(bytes.NewReader(out.Trace))
	if err != nil {
		t.Fatal(err)
	}
	ref.check(t, "job trace", cyclesOf(t, tr))
}

// TestCyclesRefusesResumedRun: a stream recorded after a restore starts
// mid-run and cannot say what the machine looked like before it.
func TestCyclesRefusesResumedRun(t *testing.T) {
	w := multiscalar.GetWorkload("example")
	prog, err := w.Build(multiscalar.ModeMultiscalar, w.TestScale)
	if err != nil {
		t.Fatal(err)
	}
	cfg := multiscalar.DefaultConfig(4, 1, false)
	var snap []byte
	if _, err := multiscalar.Run(prog, cfg, multiscalar.WithCheckpoint(500, func(b []byte) error {
		snap = b
		return nil
	})); err != nil {
		t.Fatal(err)
	}
	col := &multiscalar.TraceCollector{}
	if _, err := multiscalar.Run(prog, cfg, multiscalar.RestoreFrom(snap), multiscalar.WithTrace(col)); err != nil {
		t.Fatal(err)
	}
	err = renderCycles(&bytes.Buffer{}, &trace.Trace{Meta: trace.Meta{NumUnits: 4}, Events: col.Events})
	if !errors.Is(err, errResumed) {
		t.Fatalf("resumed stream: err = %v, want errResumed", err)
	}
}

// TestCyclesRefusesMalformed: a damaged or hostile file is a named error,
// never an index out of range.
func TestCyclesRefusesMalformed(t *testing.T) {
	end := trace.Event{Cycle: 9, Kind: trace.KRunEnd, Unit: -1, Task: -1, Arg2: 9}
	for name, tr := range map[string]*trace.Trace{
		"no units":    {Meta: trace.Meta{NumUnits: 0}, Events: []trace.Event{end}},
		"huge header": {Meta: trace.Meta{NumUnits: 1 << 20}, Events: []trace.Event{end}},
		"no run-end":  {Meta: trace.Meta{NumUnits: 2}, Events: []trace.Event{{Kind: trace.KTaskAssign}}},
		"unit range":  {Meta: trace.Meta{NumUnits: 2}, Events: []trace.Event{{Kind: trace.KTaskAssign, Unit: 2}, end}},
		"class range": {Meta: trace.Meta{NumUnits: 2}, Events: []trace.Event{{Kind: trace.KUnitActivity, Arg: 9}, end}},
	} {
		if err := renderCycles(&bytes.Buffer{}, tr); err == nil {
			t.Errorf("%s: rendered without error", name)
		}
	}
}
