// mstrace renders event traces of multiscalar simulations
// (docs/tracing.md). It reads an .mstrc file — recorded by mssim -mstrc,
// by a NewTraceWriter passed to the facade's WithTrace, or returned as
// the trace artifact of a job (JobSpec.WantTrace, "op": "trace" on
// msserve's wire) — and renders a per-task timeline
// (default), one line per cycle (-cycles), a per-task/per-unit cycle
// decomposition (-metrics), raw events (-events), or Chrome trace_event
// JSON loadable in Perfetto (-perfetto).
//
// Usage:
//
//	mssim -w example -units 8 -mstrc example.mstrc   record a run
//	mstrace -i example.mstrc                         show the timeline
//	mstrace -i example.mstrc -cycles                 head, occupancy and unit activity per cycle
//	mstrace -i example.mstrc -metrics                cycle decomposition
//	mstrace -i example.mstrc -perfetto t.json        export for ui.perfetto.dev
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"

	"multiscalar"
	"multiscalar/internal/pu"
	"multiscalar/internal/trace"
)

func main() {
	var (
		input    = flag.String("i", "", "recorded .mstrc trace to render (record one with mssim -mstrc)")
		cycles   = flag.Bool("cycles", false, "print one line per cycle: head unit, active tasks, a glyph per unit, tasks retired and squashed")
		metrics  = flag.Bool("metrics", false, "print the per-task / per-unit cycle decomposition")
		events   = flag.Bool("events", false, "dump the raw event stream")
		perfetto = flag.String("perfetto", "", "write Chrome trace_event JSON to this file")
	)
	flag.Parse()
	if *input == "" {
		fmt.Fprintln(os.Stderr, "mstrace: -i is required")
		flag.Usage()
		os.Exit(2)
	}

	tr, err := readTrace(*input)
	if err != nil {
		fatal(err)
	}

	switch {
	case *events:
		for _, e := range tr.Events {
			fmt.Println(e)
		}
	case *cycles:
		if err := renderCycles(os.Stdout, tr); err != nil {
			fatal(err)
		}
	case *metrics:
		renderMetrics(tr)
	case *perfetto != "":
		// handled below
	default:
		renderTimeline(tr)
	}
	if *perfetto != "" {
		if err := writePerfetto(*perfetto, tr); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "mstrace: wrote %s (open in ui.perfetto.dev)\n", *perfetto)
	}
}

func readTrace(path string) (*trace.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return multiscalar.ReadTrace(f)
}

// errResumed refuses -cycles on a stream that does not start at cycle 0:
// a run resumed from a snapshot, whose head, occupancy and counts at its
// first cycle the stream does not carry.
var errResumed = errors.New("trace does not start at cycle 0 (a run resumed from a snapshot): -cycles needs the whole run")

// cycleGlyphs draws a unit's activity class in the -cycles line.
var cycleGlyphs = [pu.NumActivities]byte{
	pu.ActIdle: '.', pu.ActCompute: '*', pu.ActWaitPred: 'p', pu.ActWaitIntra: 'm', pu.ActWaitRetire: 'r',
}

// renderCycles prints one line per cycle, from cycle 0 up to the one
// before the exit cycle: the head unit, the tasks in flight, each unit's
// activity class in physical order, and the tasks retired and squashed
// so far. It folds four event kinds, all stamped with the cycle they
// happen in: a KUnitActivity sets its unit's glyph, a KTaskAssign adds a
// task, a KTaskRetire removes one and makes the next unit the head, and
// a KTaskSquash removes one unless the same unit restarts the next cycle
// (a KTaskRestart, stamped ahead, counted per cycle and unit because a
// restarted task can be squashed again in its squash cycle).
func renderCycles(w io.Writer, tr *trace.Trace) error {
	if len(tr.Events) > 0 && tr.Events[0].Cycle != 0 {
		return errResumed
	}
	type slot struct {
		cycle uint64
		unit  int8
	}
	n := tr.Meta.NumUnits
	if n < 1 || n > math.MaxInt8+1 { // events name units in an int8
		return fmt.Errorf("-cycles: header claims %d units", n)
	}
	restarts := map[slot]int{}
	var evs []trace.Event
	var end uint64
	for _, e := range tr.Events {
		switch e.Kind {
		case trace.KRunEnd:
			end = e.Arg2
		case trace.KTaskRestart:
			restarts[slot{e.Cycle, e.Unit}]++
		case trace.KUnitActivity, trace.KTaskAssign, trace.KTaskRetire, trace.KTaskSquash:
			if e.Unit < 0 || int(e.Unit) >= n || e.Kind == trace.KUnitActivity && e.Arg >= uint32(pu.NumActivities) {
				return fmt.Errorf("-cycles: malformed event for %d units: %v", n, e)
			}
			evs = append(evs, e)
		}
	}
	if end == 0 {
		return errors.New("-cycles: trace has no run-end event")
	}
	glyphs := []byte(strings.Repeat(string(cycleGlyphs[pu.ActIdle]), n))
	head, active, retired, squashed := 0, 0, 0, 0
	bw := bufio.NewWriter(w)
	for c := uint64(0); c+1 < end; c++ {
		for ; len(evs) > 0 && evs[0].Cycle <= c; evs = evs[1:] {
			e := evs[0]
			switch e.Kind {
			case trace.KUnitActivity:
				glyphs[e.Unit] = cycleGlyphs[e.Arg]
			case trace.KTaskAssign:
				active++
			case trace.KTaskRetire:
				active--
				retired++
				head = (int(e.Unit) + 1) % n
			case trace.KTaskSquash:
				squashed++
				if k := (slot{e.Cycle + 1, e.Unit}); restarts[k] > 0 {
					restarts[k]--
				} else {
					active--
				}
			}
		}
		fmt.Fprintf(bw, "%8d head=%d active=%d [%s] retired=%d squashed=%d\n",
			c, head, active, glyphs, retired, squashed)
	}
	return bw.Flush()
}

// renderTimeline prints one row per task: lifecycle milestones, outcome,
// and a proportional lane diagram of its activations.
func renderTimeline(tr *trace.Trace) {
	s := trace.Summarize(tr)
	fmt.Printf("%s: %d units, %d cycles, %d tasks\n\n",
		labelOf(tr), tr.Meta.NumUnits, s.Cycles, len(s.Tasks))
	const lanes = 60
	fmt.Printf("%5s %-14s %4s %9s %9s %9s  %-18s %s\n",
		"task", "name", "unit", "assigned", "1st-issue", "end", "outcome", "activity")
	for i := range s.Tasks {
		t := &s.Tasks[i]
		issue := "-"
		if t.HasIssue {
			issue = fmt.Sprint(t.FirstIssue)
		}
		fmt.Printf("%5d %-14s %4d %9d %9s %9d  %-18s %s\n",
			t.Seq, nameOf(tr, t), t.Unit, t.Assigned, issue, t.EndCycle,
			outcome(t), lane(t, s.Cycles, lanes))
	}
}

// outcome renders how a task ended.
func outcome(t *trace.TaskSummary) string {
	if t.Retired {
		if t.Restarts > 0 {
			return fmt.Sprintf("retire %d (re-run %d)", t.Instrs, t.Restarts)
		}
		return fmt.Sprintf("retire %d", t.Instrs)
	}
	if t.HasConflict {
		return fmt.Sprintf("squash %s d=%d addr=0x%x bank=%d",
			trace.CauseName(t.SquashCause), t.SquashDist, t.SquashAddr, t.SquashBank)
	}
	return fmt.Sprintf("squash %s d=%d", trace.CauseName(t.SquashCause), t.SquashDist)
}

// lane draws the task's activations on a fixed-width strip: '=' for
// cycles that committed, '~' for squashed activations.
func lane(t *trace.TaskSummary, cycles uint64, width int) string {
	if cycles == 0 {
		return ""
	}
	b := []byte(strings.Repeat(".", width))
	for _, sp := range t.Spans {
		lo := int(sp.Start * uint64(width) / cycles)
		hi := int(sp.End * uint64(width) / cycles)
		if hi >= width {
			hi = width - 1
		}
		c := byte('=')
		if sp.Squashed {
			c = '~'
		}
		for i := lo; i <= hi && i >= 0; i++ {
			b[i] = c
		}
	}
	return string(b)
}

// renderMetrics prints the per-task and per-unit decomposition of the
// run's unit-cycles — the trace-level view of Result.Activity.
func renderMetrics(tr *trace.Trace) {
	s := trace.Summarize(tr)
	fmt.Printf("%s: %d units, %d cycles\n\n", labelOf(tr), tr.Meta.NumUnits, s.Cycles)

	classes := []pu.Activity{pu.ActCompute, pu.ActWaitPred, pu.ActWaitIntra, pu.ActWaitRetire}
	heads := []string{"compute", "wait-pred", "wait-intra", "wait-retire"}

	fmt.Printf("per task:\n%5s %-14s %4s", "task", "name", "unit")
	for _, h := range heads {
		fmt.Printf(" %11s", h)
	}
	fmt.Printf(" %11s  %s\n", "squashed", "outcome")
	var totals [pu.NumActivities]uint64
	var totalSquashed uint64
	perUnit := map[int8]*unitRow{}
	for i := range s.Tasks {
		t := &s.Tasks[i]
		fmt.Printf("%5d %-14s %4d", t.Seq, nameOf(tr, t), t.Unit)
		for _, c := range classes {
			fmt.Printf(" %11d", t.Activity[c])
			totals[c] += t.Activity[c]
		}
		totalSquashed += t.SquashedCycles
		fmt.Printf(" %11d  %s\n", t.SquashedCycles, outcome(t))
		u := perUnit[t.Unit]
		if u == nil {
			u = &unitRow{}
			perUnit[t.Unit] = u
		}
		u.tasks++
		for _, c := range classes {
			u.act[c] += t.Activity[c]
		}
		u.squashed += t.SquashedCycles
	}
	fmt.Printf("%5s %-14s %4s", "", "total", "")
	for _, c := range classes {
		fmt.Printf(" %11d", totals[c])
	}
	fmt.Printf(" %11d\n", totalSquashed)

	fmt.Printf("\nper unit:\n%4s %6s", "unit", "tasks")
	for _, h := range heads {
		fmt.Printf(" %11s", h)
	}
	fmt.Printf(" %11s %11s\n", "squashed", "idle+other")
	unitIDs := make([]int8, 0, len(perUnit))
	for id := range perUnit {
		unitIDs = append(unitIDs, id)
	}
	sort.Slice(unitIDs, func(i, j int) bool { return unitIDs[i] < unitIDs[j] })
	for _, id := range unitIDs {
		u := perUnit[id]
		var used uint64
		fmt.Printf("%4d %6d", id, u.tasks)
		for _, c := range classes {
			fmt.Printf(" %11d", u.act[c])
			used += u.act[c]
		}
		used += u.squashed
		idle := uint64(0)
		if s.Cycles > used {
			idle = s.Cycles - used
		}
		fmt.Printf(" %11d %11d\n", u.squashed, idle)
	}
}

type unitRow struct {
	tasks    int
	act      [pu.NumActivities]uint64
	squashed uint64
}

// chromeEvent is one Chrome trace_event record (the subset Perfetto
// reads: complete spans, instants, and thread-name metadata).
type chromeEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    uint64         `json:"ts"`
	Dur   uint64         `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// writePerfetto exports one track per processing unit: task activations
// as complete spans (1 cycle = 1 µs) plus instants for squashes and
// memory-order violations.
func writePerfetto(path string, tr *trace.Trace) error {
	s := trace.Summarize(tr)
	var evs []chromeEvent
	evs = append(evs, chromeEvent{
		Name: "process_name", Phase: "M", PID: 1,
		Args: map[string]any{"name": "multiscalar " + labelOf(tr)},
	})
	for u := 0; u < tr.Meta.NumUnits; u++ {
		evs = append(evs, chromeEvent{
			Name: "thread_name", Phase: "M", PID: 1, TID: u,
			Args: map[string]any{"name": fmt.Sprintf("PU %d", u)},
		})
	}
	for i := range s.Tasks {
		t := &s.Tasks[i]
		name := nameOf(tr, t)
		if name == "" {
			name = fmt.Sprintf("0x%x", t.Entry)
		}
		for _, sp := range t.Spans {
			dur := sp.End - sp.Start
			if dur == 0 {
				dur = 1
			}
			outcome := "retired"
			if sp.Squashed {
				outcome = "squashed (" + trace.CauseName(sp.Cause) + ")"
			}
			evs = append(evs, chromeEvent{
				Name: fmt.Sprintf("%s #%d", name, t.Seq), Phase: "X",
				TS: sp.Start, Dur: dur, PID: 1, TID: int(sp.Unit),
				Args: map[string]any{
					"task":    t.Seq,
					"entry":   fmt.Sprintf("0x%x", t.Entry),
					"outcome": outcome,
				},
			})
			if sp.Squashed {
				evs = append(evs, chromeEvent{
					Name: "squash " + trace.CauseName(sp.Cause), Phase: "i",
					TS: sp.End, PID: 1, TID: int(sp.Unit), Scope: "t",
				})
			}
		}
	}
	for _, e := range tr.Events {
		if e.Kind == trace.KARBViolation {
			evs = append(evs, chromeEvent{
				Name: fmt.Sprintf("violation @0x%x", e.Arg), Phase: "i",
				TS: e.Cycle, PID: 1, TID: int(e.Unit), Scope: "t",
			})
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"traceEvents": evs}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func labelOf(tr *trace.Trace) string {
	if tr.Meta.Label != "" {
		return tr.Meta.Label
	}
	return "trace"
}

func nameOf(tr *trace.Trace, t *trace.TaskSummary) string {
	if n := t.Name(&tr.Meta); n != "" {
		return n
	}
	return fmt.Sprintf("0x%x", t.Entry)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mstrace:", err)
	os.Exit(1)
}
