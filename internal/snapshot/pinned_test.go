package snapshot_test

import (
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"

	"multiscalar/internal/arb"
	"multiscalar/internal/asm"
	"multiscalar/internal/core"
	"multiscalar/internal/interp"
	"multiscalar/internal/isa"
	"multiscalar/internal/trace"
	"multiscalar/internal/workloads"
)

// buildTB assembles a suite workload at test scale, for tests and fuzz
// targets alike.
func buildTB(tb testing.TB, name string, mode asm.Mode) *isa.Program {
	tb.Helper()
	w := workloads.Get(name)
	if w == nil {
		tb.Fatalf("unknown workload %s", name)
	}
	p, err := w.Build(mode, w.TestScale)
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

func newTiming(tb testing.TB, p *isa.Program, cfg core.Config) *core.Multiscalar {
	tb.Helper()
	m, err := core.NewMultiscalar(p, interp.NewSysEnv(), cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// captureTiming runs one machine to completion, saving at the first
// executed iteration at or after each cycle in at (ascending) and once
// more on the finished machine.
func captureTiming(tb testing.TB, p *isa.Program, cfg core.Config, at ...uint64) [][]byte {
	tb.Helper()
	m := newTiming(tb, p, cfg)
	var snaps [][]byte
	save := func() error {
		snap, err := m.Save()
		snaps = append(snaps, snap)
		return err
	}
	var hook func() error
	hook = func() error {
		if err := save(); err != nil {
			return err
		}
		if len(snaps) < len(at) {
			m.ScheduleCheckpoint(at[len(snaps)], hook)
		}
		return nil
	}
	if len(at) > 0 {
		m.ScheduleCheckpoint(at[0], hook)
	}
	if _, err := m.Run(); err != nil {
		tb.Fatal(err)
	}
	if len(snaps) != len(at) {
		tb.Fatalf("run ended after %d of %d checkpoints", len(snaps), len(at))
	}
	if err := save(); err != nil {
		tb.Fatal(err)
	}
	return snaps
}

// captureInterp saves the functional machine after each instruction
// count in at (ascending) and once more after it has exited.
func captureInterp(tb testing.TB, p *isa.Program, at ...uint64) [][]byte {
	tb.Helper()
	m := interp.NewMachine(p, interp.NewSysEnv())
	var snaps [][]byte
	save := func() {
		snap, err := m.Save()
		if err != nil {
			tb.Fatal(err)
		}
		snaps = append(snaps, snap)
	}
	for _, n := range at {
		for m.ICount < n {
			if err := m.Step(); err != nil {
				tb.Fatal(err)
			}
		}
		save()
	}
	if err := m.Run(1 << 30); err != nil {
		tb.Fatal(err)
	}
	save()
	return snaps
}

// testWarmer drives a WarmState the way the sampler's warming pass does
// (internal/sample), in its plainest form: every load and store touches
// the D-cache; every instruction of a run touches the I-cache when the
// run ends (interp.Warmer), or when a capture flushes the open run; the
// run's last instruction trains the branch predictor; every task exit
// trains the sequencer's predictor and return stack; and a capture is
// encoded at the first permitted point — the exact count in a program
// without descriptors, a task boundary in one with — at or after each
// scheduled count.
type testWarmer struct {
	m        *interp.Machine
	ws       *core.WarmState
	prog     *isa.Program
	cur      *isa.TaskDescriptor
	runStart uint32 // first instruction of the open run
	at       []uint64
	snaps    [][]byte
}

func (w *testWarmer) Mem(addr uint32, store bool) { w.ws.DCache.Touch(addr) }

func (w *testWarmer) Retire(pc, next uint32) {
	w.fetch(pc)
	w.runStart = next
	in := w.prog.InstrAt(pc)
	taken := next != pc+isa.InstrSize
	switch {
	case in.Op.IsBranch():
		w.ws.Branch.UpdateTaken(pc, taken, w.ws.Branch.PredictTaken(pc))
	case in.Op == isa.OpJalr:
		w.ws.Branch.UpdateIndirect(pc, next)
	}
	if w.ws.Multi && in.Stop.Holds(taken) {
		w.boundary(next, in.Op == isa.OpJr)
		if len(w.snaps) < len(w.at) && w.m.ICount+1 >= w.at[len(w.snaps)] {
			w.capture(next, w.m.ICount+1)
		}
	}
}

// fetch touches the I-cache at every instruction of the open run up to
// last.
func (w *testWarmer) fetch(last uint32) {
	for a := w.runStart; a <= last; a += isa.InstrSize {
		w.ws.ICache.Touch(a)
	}
}

// flush fetches the whole open run before a capture.
func (w *testWarmer) flush() {
	w.fetch(w.m.PC - isa.InstrSize)
	w.runStart = w.m.PC
}

func (w *testWarmer) boundary(next uint32, byRet bool) {
	if desc := w.cur; desc != nil && len(desc.Targets) > 0 {
		idx := desc.TargetIndex(next)
		if byRet {
			idx = desc.TargetIndex(isa.TargetReturn)
		}
		if idx >= 0 {
			if len(desc.Targets) > 1 {
				hist := w.ws.TaskPred.History(desc.Entry)
				pred := w.ws.TaskPred.Predict(desc.Entry) % len(desc.Targets)
				w.ws.TaskPred.UpdateWith(hist, desc.Entry, idx, pred)
			}
			if desc.Targets[idx] == isa.TargetReturn {
				w.ws.RAS.Pop()
			}
			if desc.PushRA != 0 && desc.Targets[idx] == desc.CallTarget {
				w.ws.RAS.Push(desc.PushRA)
			}
		}
	}
	w.ws.DescCache.Touch(next)
	w.cur = w.prog.TaskAt(next)
}

func (w *testWarmer) capture(pc uint32, icount uint64) {
	w.ws.PC, w.ws.FCC, w.ws.ICount, w.ws.Regs = pc, w.m.FCC, icount, w.m.Regs
	w.snaps = append(w.snaps, w.ws.Encode())
}

// captureWarm runs the functional machine under a testWarmer and returns
// a warm capture per scheduled count plus one of the exited machine.
func captureWarm(tb testing.TB, p *isa.Program, cfg core.Config, at ...uint64) [][]byte {
	tb.Helper()
	m := interp.NewMachine(p, interp.NewSysEnv())
	w := &testWarmer{m: m, ws: core.NewWarmState(p, cfg), prog: p, cur: p.TaskAt(p.Entry), runStart: m.PC, at: at}
	w.ws.Env, w.ws.Mem = m.Env, m.Mem
	m.Warm = w
	for i := 0; !w.ws.Multi && i < len(at); i++ {
		if err := m.RunTo(at[i]); err != nil || m.ICount != at[i] {
			tb.Fatalf("warming stopped at %d instructions, not %d: %v", m.ICount, at[i], err)
		}
		w.flush()
		w.capture(m.PC, at[i])
	}
	if err := m.Run(1 << 30); err != nil {
		tb.Fatal(err)
	}
	if len(w.snaps) != len(at) {
		tb.Fatalf("warming ended after %d of %d captures", len(w.snaps), len(at))
	}
	w.flush()
	w.capture(m.PC, m.ICount)
	return w.snaps
}

// pinnedMachine is one timing configuration TestSnapshotBytesPinned
// records: the workload's multiscalar build, or its scalar one.
type pinnedMachine struct {
	name   string
	scalar bool
	cfg    core.Config
}

// pinnedMachines: three multiscalar shapes that between them reach
// in-order and out-of-order windows, 4 to 16 units and both ARB overflow
// policies, then both issue orders of the scalar baseline.
func pinnedMachines() []pinnedMachine {
	squash := core.DefaultConfig(16, 1, false)
	squash.ARBPolicy = arb.PolicySquash
	return []pinnedMachine{
		{"ms-4u-inorder", false, core.DefaultConfig(4, 1, false)},
		{"ms-8u-2w-ooo", false, core.DefaultConfig(8, 2, true)},
		{"ms-16u-arbsquash", false, squash},
		{"ms-1u-scalar-1w-inorder", true, core.ScalarConfig(1, false)},
		{"ms-1u-scalar-2w-ooo", true, core.ScalarConfig(2, true)},
	}
}

var pinnedPoints = [3]string{"early", "mid", "finished"}

// snapshotHashes recomputes the recording: one line per snapshot, naming
// the workload, the machine, whether a trace sink was attached, the
// capture point, and the snapshot's length and SHA-256.
func snapshotHashes(t *testing.T) []string {
	var lines []string
	add := func(workload, machine, sink string, snaps [][]byte) {
		for i, s := range snaps {
			lines = append(lines, fmt.Sprintf("%s %s %s %s %d %x",
				workload, machine, sink, pinnedPoints[i], len(s), sha256.Sum256(s)))
		}
	}
	for _, name := range []string{"wc", "compress", "example"} {
		sp := buildTB(t, name, asm.ModeScalar)
		mp := buildTB(t, name, asm.ModeMultiscalar)

		ref := interp.NewMachine(mp, interp.NewSysEnv())
		if err := ref.Run(1 << 30); err != nil {
			t.Fatal(err)
		}
		add(name, "interp", "nosink", captureInterp(t, mp, 100, ref.ICount/2))
		add(name, "warm-scalar", "nosink",
			captureWarm(t, sp, core.ScalarConfig(1, false), 100, ref.ICount/2))
		add(name, "warm-multiscalar", "nosink",
			captureWarm(t, mp, core.DefaultConfig(4, 1, false), 100, ref.ICount/2))

		for _, pm := range pinnedMachines() {
			p := mp
			if pm.scalar {
				p = sp
			}
			full, err := newTiming(t, p, pm.cfg).Run()
			if err != nil {
				t.Fatal(err)
			}
			add(name, pm.name, "nosink", captureTiming(t, p, pm.cfg, 50, full.Cycles/2))
			traced := pm.cfg
			traced.Sink = &trace.Collector{}
			add(name, pm.name, "sink", captureTiming(t, p, traced, 50, full.Cycles/2))
		}
	}
	return lines
}

// TestSnapshotBytesPinned is the proof that a change to the state walks
// moved no byte of the format: every Save and WarmState.Encode the
// recording names must hash to what it hashed to when the recording was
// made. The recording's header says when it may be regenerated; a
// failing run logs the whole recomputed body for that occasion.
func TestSnapshotBytesPinned(t *testing.T) {
	const path = "testdata/snapshot_hashes.txt"
	rec, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, line := range strings.Split(strings.TrimSpace(string(rec)), "\n") {
		if !strings.HasPrefix(line, "#") {
			want = append(want, line)
		}
	}
	got := snapshotHashes(t)
	if len(got) != len(want) {
		t.Errorf("%d snapshots taken, %d recorded", len(got), len(want))
	}
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			t.Errorf("snapshot bytes moved\n got %s\nwant %s", got[i], want[i])
		}
	}
	if t.Failed() {
		t.Logf("recomputed recording:\n%s", strings.Join(got, "\n"))
	}
}
