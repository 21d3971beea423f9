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
// moved no byte of the format: every Multiscalar.Save the recording names
// must hash to what it hashed to when the recording was
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
