package multiscalar_test

import (
	"bytes"
	"reflect"
	"testing"

	"multiscalar"
	"multiscalar/internal/pu"
	"multiscalar/internal/trace"
)

// exampleTrace runs the paper's linked-list example with a collector
// attached and oracle verification on, returning the result and stream.
func exampleTrace(t *testing.T, units int) (*multiscalar.Result, *multiscalar.TraceCollector, *multiscalar.Program, multiscalar.Config) {
	t.Helper()
	w := multiscalar.GetWorkload("example")
	if w == nil {
		t.Fatal("example workload missing")
	}
	prog, err := w.Build(multiscalar.ModeMultiscalar, 20)
	if err != nil {
		t.Fatal(err)
	}
	cfg := multiscalar.DefaultConfig(units, 1, false)
	col := &multiscalar.TraceCollector{}
	res, err := multiscalar.Run(prog, cfg, multiscalar.WithTrace(col), multiscalar.WithVerify())
	if err != nil {
		t.Fatal(err)
	}
	return res, col, prog, cfg
}

// TestTraceEventSequence checks the event stream of an oracle-verified
// run of examples/linkedlist against the run's Result: the task
// lifecycle ordering, and the exact agreement of every per-event count
// with the corresponding aggregate statistic.
func TestTraceEventSequence(t *testing.T) {
	res, col, _, _ := exampleTrace(t, 4)

	var (
		assigns, retires, squashes   uint64
		committed                    uint64
		activity                     [pu.NumActivities]uint64
		squashedCycles               uint64
		arbViol, arbOver             uint64
		icacheMiss, dcacheMiss, busN uint64
		lastAssignCycle              uint64
		lastAssignSeq                = int32(-1)
		lastRetireSeq                = int32(-1)
		assigned                     = map[int32]bool{}
		runEnds                      int
	)
	for _, e := range col.Events {
		if e.Task >= 0 && e.Kind != trace.KTaskAssign && !assigned[e.Task] {
			t.Fatalf("event %v before task %d was assigned", e, e.Task)
		}
		switch e.Kind {
		case trace.KTaskAssign:
			assigns++
			if e.Task != lastAssignSeq+1 {
				t.Fatalf("assign of task %d follows task %d: sequence numbers must be dense", e.Task, lastAssignSeq)
			}
			if e.Cycle < lastAssignCycle {
				t.Fatalf("assign of task %d at cycle %d precedes previous assign at %d", e.Task, e.Cycle, lastAssignCycle)
			}
			lastAssignSeq, lastAssignCycle = e.Task, e.Cycle
			assigned[e.Task] = true
		case trace.KTaskRetire:
			retires++
			committed += e.Arg2
			if e.Task <= lastRetireSeq {
				t.Fatalf("task %d retired after task %d: retirement must follow program order", e.Task, lastRetireSeq)
			}
			lastRetireSeq = e.Task
		case trace.KTaskSquash:
			squashes++
		case trace.KTaskActivity:
			class := e.Arg &^ trace.ActivitySquashed
			if class == 0 || class >= uint32(pu.NumActivities) {
				t.Fatalf("activity event with class %d: %v", class, e)
			}
			if e.Arg&trace.ActivitySquashed != 0 {
				squashedCycles += e.Arg2
			} else {
				activity[class] += e.Arg2
			}
		case trace.KARBViolation:
			arbViol++
		case trace.KARBOverflow:
			arbOver++
		case trace.KICacheMiss:
			icacheMiss++
		case trace.KDCacheMiss:
			dcacheMiss++
		case trace.KBusRequest:
			busN++
		case trace.KRunEnd:
			runEnds++
			if e.Arg2 != res.Cycles {
				t.Errorf("run-end cycle %d, result %d", e.Arg2, res.Cycles)
			}
		}
	}
	if runEnds != 1 || col.Events[len(col.Events)-1].Kind != trace.KRunEnd {
		t.Errorf("trace must end with exactly one run-end event (got %d)", runEnds)
	}
	if retires != res.TasksRetired || squashes != res.TasksSquashed {
		t.Errorf("lifecycle counts: %d retires, %d squashes; result has %d, %d",
			retires, squashes, res.TasksRetired, res.TasksSquashed)
	}
	if assigns != res.TasksRetired+res.TasksSquashed-uint64(countRestarted(col.Events)) {
		// Every assignment ends in exactly one retire or one final
		// squash; restarted activations re-use their assignment, and a
		// task squashed then re-run to retirement contributes one squash
		// AND one retire for a single assign.
		t.Errorf("assigns = %d, retires+squashes-restartedRetires = %d",
			assigns, res.TasksRetired+res.TasksSquashed-uint64(countRestarted(col.Events)))
	}
	if committed != res.Committed {
		t.Errorf("retired instructions sum to %d, result committed %d", committed, res.Committed)
	}
	// The tentpole's acceptance bar: the per-task decomposition must sum
	// exactly to the Result aggregates, class by class.
	for a := pu.ActCompute; a < pu.NumActivities; a++ {
		if activity[a] != res.Activity[a] {
			t.Errorf("activity[%v] sums to %d, result has %d", a, activity[a], res.Activity[a])
		}
	}
	if squashedCycles != res.SquashedCycles {
		t.Errorf("squashed cycles sum to %d, result has %d", squashedCycles, res.SquashedCycles)
	}
	if arbViol != res.ARBViolations || arbOver != res.ARBOverflows {
		t.Errorf("arb events %d/%d, result %d/%d", arbViol, arbOver, res.ARBViolations, res.ARBOverflows)
	}
	if icacheMiss != res.ICacheMisses || dcacheMiss != res.DCacheMisses || busN != res.BusRequests {
		t.Errorf("memory events %d/%d/%d, result %d/%d/%d",
			icacheMiss, dcacheMiss, busN, res.ICacheMisses, res.DCacheMisses, res.BusRequests)
	}
	if res.MemSquashes == 0 {
		t.Error("the example workload should exhibit memory-order squashes (Section 2.3)")
	}

	// The summarizer's view must agree with the raw fold above.
	s := trace.Summarize(&trace.Trace{Events: col.Events})
	var sumAct [trace.MaxActivityClasses]uint64
	var sumSquashed uint64
	for _, task := range s.Tasks {
		for c, n := range task.Activity {
			sumAct[c] += n
		}
		sumSquashed += task.SquashedCycles
	}
	for a := pu.ActCompute; a < pu.NumActivities; a++ {
		if sumAct[a] != res.Activity[a] {
			t.Errorf("summary activity[%v] = %d, result %d", a, sumAct[a], res.Activity[a])
		}
	}
	if sumSquashed != res.SquashedCycles {
		t.Errorf("summary squashed cycles = %d, result %d", sumSquashed, res.SquashedCycles)
	}
}

func countRestarted(events []multiscalar.TraceEvent) int {
	restarted := map[int32]bool{}
	for _, e := range events {
		if e.Kind == trace.KTaskRestart {
			restarted[e.Task] = true
		}
	}
	// A restarted task's earlier squash(es) did not end its assignment.
	n := 0
	seen := map[int32]int{}
	for _, e := range events {
		if e.Kind == trace.KTaskSquash && restarted[e.Task] {
			seen[e.Task]++
		}
	}
	for task, squashes := range seen {
		n += squashes
		// If the task's final outcome was a squash with no restart after
		// it, that one did end the assignment.
		if finalOutcomeIsSquash(events, task) {
			n--
		}
	}
	return n
}

func finalOutcomeIsSquash(events []multiscalar.TraceEvent, task int32) bool {
	last := trace.Kind(0)
	for _, e := range events {
		if e.Task == task {
			switch e.Kind {
			case trace.KTaskSquash, trace.KTaskRetire, trace.KTaskRestart:
				last = e.Kind
			}
		}
	}
	return last == trace.KTaskSquash
}

// TestTraceRoundTripExample writes the example workload's live event
// stream through the .mstrc writer and reads it back: metadata and every
// event must survive byte-exactly.
func TestTraceRoundTripExample(t *testing.T) {
	_, col, prog, cfg := exampleTrace(t, 4)
	var buf bytes.Buffer
	w, err := multiscalar.NewTraceWriter(&buf, prog, cfg, "example")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range col.Events {
		w.Emit(e)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	back, err := multiscalar.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Meta.NumUnits != cfg.NumUnits || back.Meta.Label != "example" {
		t.Errorf("meta = %+v", back.Meta)
	}
	if len(back.Meta.Tasks) != len(prog.Tasks) {
		t.Errorf("task table has %d names, program has %d descriptors", len(back.Meta.Tasks), len(prog.Tasks))
	}
	if !reflect.DeepEqual(back.Events, col.Events) {
		t.Fatalf("events did not survive the round trip: %d in, %d out", len(col.Events), len(back.Events))
	}
}

// TestTraceOffIsFree guards the nil-sink contract: attaching a trace
// sink must not change a single statistic of the run, so the untraced
// fast path and the traced path are cycle-for-cycle the same machine.
func TestTraceOffIsFree(t *testing.T) {
	w := multiscalar.GetWorkload("example")
	prog, err := w.Build(multiscalar.ModeMultiscalar, 20)
	if err != nil {
		t.Fatal(err)
	}
	cfg := multiscalar.DefaultConfig(4, 1, false)
	plain, err := multiscalar.Run(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	col := &multiscalar.TraceCollector{}
	traced, err := multiscalar.Run(prog, cfg, multiscalar.WithTrace(col))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, traced) {
		t.Errorf("tracing changed the run:\nplain  %+v\ntraced %+v", plain, traced)
	}
	if len(col.Events) == 0 {
		t.Error("traced run emitted no events")
	}

	// The scalar machine honors the same contract.
	scProg, err := w.Build(multiscalar.ModeScalar, 20)
	if err != nil {
		t.Fatal(err)
	}
	scCfg := multiscalar.ScalarConfig(1, false)
	scPlain, err := multiscalar.Run(scProg, scCfg)
	if err != nil {
		t.Fatal(err)
	}
	scCol := &multiscalar.TraceCollector{}
	scTraced, err := multiscalar.Run(scProg, scCfg, multiscalar.WithTrace(scCol))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(scPlain, scTraced) {
		t.Errorf("tracing changed the scalar run:\nplain  %+v\ntraced %+v", scPlain, scTraced)
	}
	if len(scCol.Events) == 0 {
		t.Error("traced scalar run emitted no events")
	}
}

// TestRunWithStdin covers the SysReadChar syscall end to end: the
// program echoes its input stream, and WithVerify replays the same bytes
// to the oracle and the timing run.
func TestRunWithStdin(t *testing.T) {
	src := `
main:
	li $s1, 0
echo:
	li $v0, 12         ; read_char
	syscall
	bltz $v0, done
	add $s1, $s1, $v0
	move $a0, $v0
	li $v0, 11         ; print_char
	syscall
	j echo
done:
	move $a0, $s1
	li $v0, 1
	syscall
	li $v0, 10
	li $a0, 0
	syscall
`
	res, err := multiscalar.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	out, err := multiscalar.Run(res.Prog, multiscalar.ScalarConfig(1, false),
		multiscalar.WithStdin(bytes.NewReader([]byte("abc"))), multiscalar.WithVerify())
	if err != nil {
		t.Fatal(err)
	}
	want := "abc" + "294" // echoed bytes then their sum
	if out.Out != want {
		t.Errorf("out = %q, want %q", out.Out, want)
	}

	// No stdin: read_char reports end-of-input immediately.
	empty, err := multiscalar.Run(res.Prog, multiscalar.ScalarConfig(1, false), multiscalar.WithVerify())
	if err != nil {
		t.Fatal(err)
	}
	if empty.Out != "0" {
		t.Errorf("out with no stdin = %q, want %q", empty.Out, "0")
	}

	// The interpreter reads the same stream.
	oracle, err := multiscalar.Interpret(res.Prog, multiscalar.WithStdin(bytes.NewReader([]byte("hi"))))
	if err != nil {
		t.Fatal(err)
	}
	if oracle.Out != "hi209" {
		t.Errorf("oracle out = %q", oracle.Out)
	}
}

// TestRunWithMaxCycles bounds a timing run below its cycle need.
func TestRunWithMaxCycles(t *testing.T) {
	prog := mustAssemble(t, apiDemo, multiscalar.ModeMultiscalar)
	cfg := multiscalar.DefaultConfig(4, 1, false)
	cfg.MaxCycles = 10
	if _, err := multiscalar.Run(prog, cfg); err == nil {
		t.Error("a 10-cycle bound should abort the run")
	}
}
