package snapshot_test

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	"multiscalar/internal/arb"
	"multiscalar/internal/asm"
	"multiscalar/internal/core"
	"multiscalar/internal/interp"
	"multiscalar/internal/isa"
	"multiscalar/internal/job"
	"multiscalar/internal/litmus"
	"multiscalar/internal/snapshot"
	"multiscalar/internal/trace"
)

// errInterrupted is the sentinel a checkpoint callback returns to stop
// the run at the checkpoint — the "process killed mid-simulation" half
// of a round trip.
var errInterrupted = errors.New("interrupted at checkpoint")

func runMulti(t *testing.T, p *isa.Program, cfg core.Config) *core.Result {
	t.Helper()
	m, err := core.NewMultiscalar(p, interp.NewSysEnv(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// interruptAndResume runs p under cfg, saves and aborts at cycle `at`,
// then restores the snapshot into a fresh machine and finishes.
func interruptAndResume(t *testing.T, p *isa.Program, cfg core.Config, at uint64) *core.Result {
	t.Helper()
	m1, err := core.NewMultiscalar(p, interp.NewSysEnv(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var snap []byte
	m1.ScheduleCheckpoint(at, func() error {
		if snap, err = m1.Save(); err != nil {
			return err
		}
		return errInterrupted
	})
	if _, err := m1.Run(); !errors.Is(err, errInterrupted) {
		t.Fatalf("interrupted run: err = %v, want %v", err, errInterrupted)
	}

	m2, err := core.NewMultiscalar(p, interp.NewSysEnv(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.Restore(snap); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	res, err := m2.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// sameResult reports whether a resumed run's Result equals the
// uninterrupted run's in every field but UnitTicks: a snapshot does not
// carry the wakeup scheduler's state, so a resumed machine starts with
// every unit awake and counts its Ticks afresh (core.Result.UnitTicks).
func sameResult(got, want *core.Result) bool {
	g := *got
	g.UnitTicks = want.UnitTicks
	return reflect.DeepEqual(&g, want)
}

// TestMultiscalarRoundTrip saves at random mid-run cycles across unit
// counts and checks the resumed run's Result — every cycle count, every
// statistic, CyclesTicked included — equals the uninterrupted run's.
func TestMultiscalarRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, name := range []string{"wc", "compress", "tomcatv"} {
		p := buildTB(t, name, asm.ModeMultiscalar)
		for _, units := range []int{2, 4, 8} {
			cfg := core.DefaultConfig(units, 2, true)
			full := runMulti(t, p, cfg)
			if full.Cycles < 4 {
				t.Fatalf("%s/%d: run too short (%d cycles) to checkpoint", name, units, full.Cycles)
			}
			for trial := 0; trial < 3; trial++ {
				at := 1 + uint64(rng.Int63n(int64(full.Cycles-1)))
				got := interruptAndResume(t, p, cfg, at)
				if !sameResult(got, full) {
					t.Errorf("%s units=%d checkpoint@%d: resumed result differs\ngot  %+v\nwant %+v",
						name, units, at, got, full)
				}
			}
		}
	}
}

// TestScalarRoundTrip does the same for the scalar baseline, whose one
// task the snapshot walk looks up through the machine, not the binary.
func TestScalarRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	p := buildTB(t, "wc", asm.ModeScalar)
	cfg := core.ScalarConfig(2, true)
	full := runMulti(t, p, cfg)
	for trial := 0; trial < 4; trial++ {
		at := 1 + uint64(rng.Int63n(int64(full.Cycles-1)))
		got := interruptAndResume(t, p, cfg, at)
		if !sameResult(got, full) {
			t.Errorf("scalar checkpoint@%d: resumed result differs\ngot  %+v\nwant %+v", at, got, full)
		}
	}
}

// TestTraceRoundTrip checks the .mstrc stream: an interrupted run whose
// restored half keeps writing to the same trace writer must produce a
// byte-identical stream to the uninterrupted run.
func TestTraceRoundTrip(t *testing.T) {
	p := buildTB(t, "wc", asm.ModeMultiscalar)
	cfg := core.DefaultConfig(4, 1, false)
	meta := trace.Meta{NumUnits: cfg.NumUnits, Label: "roundtrip"}

	record := func(run func(sink trace.Sink) error) []byte {
		var buf bytes.Buffer
		w, err := trace.NewWriter(&buf, meta)
		if err != nil {
			t.Fatal(err)
		}
		if err := run(w); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	full := record(func(sink trace.Sink) error {
		c := cfg
		c.Sink = sink
		m, err := core.NewMultiscalar(p, interp.NewSysEnv(), c)
		if err != nil {
			return err
		}
		_, err = m.Run()
		return err
	})

	rng := rand.New(rand.NewSource(47))
	baseline := runMulti(t, p, cfg)
	for trial := 0; trial < 3; trial++ {
		at := 1 + uint64(rng.Int63n(int64(baseline.Cycles-1)))
		spliced := record(func(sink trace.Sink) error {
			c := cfg
			c.Sink = sink
			m1, err := core.NewMultiscalar(p, interp.NewSysEnv(), c)
			if err != nil {
				return err
			}
			var snap []byte
			m1.ScheduleCheckpoint(at, func() error {
				var err error
				if snap, err = m1.Save(); err != nil {
					return err
				}
				return errInterrupted
			})
			if _, err := m1.Run(); !errors.Is(err, errInterrupted) {
				t.Fatalf("interrupted run: err = %v", err)
			}
			m2, err := core.NewMultiscalar(p, interp.NewSysEnv(), c)
			if err != nil {
				return err
			}
			if err := m2.Restore(snap); err != nil {
				return err
			}
			_, err = m2.Run()
			return err
		})
		if !bytes.Equal(full, spliced) {
			t.Errorf("checkpoint@%d: spliced trace differs from uninterrupted trace (%d vs %d bytes)",
				at, len(spliced), len(full))
		}
	}
}

// TestInterpStdinRoundTrip checks that a snapshot taken between reads of
// the input stream repositions a fresh reader over it: a one-unit scalar
// run, checkpointed at cycles across the run and resumed through
// job.Execute with Runtime.Restore and the same Spec.Stdin, echoes the
// input exactly, verified against the oracle. Resumed over a different
// input instead, it echoes the bytes the saved run had read, then the
// new input from the same position, so the snapshot carries the
// consumed count and not a copy of the stream.
func TestInterpStdinRoundTrip(t *testing.T) {
	src := `
main:
	li   $t0, 6
loop:
	li   $v0, 12
	syscall
	addi $a0, $v0, 0
	li   $v0, 11
	syscall
	addi $t0, $t0, -1
	bnez $t0, loop
	li   $v0, 10
	li   $a0, 0
	syscall
`
	const input, other = "abcdef", "uvwxyz"
	spec := func(stdin string, verify bool) *job.Spec {
		return &job.Spec{Op: job.OpSimulate, Source: src, Mode: asm.ModeScalar,
			Config: core.ScalarConfig(1, false), Stdin: []byte(stdin), Verify: verify}
	}
	full, err := job.Execute(spec(input, true), nil)
	if err != nil {
		t.Fatal(err)
	}
	p, err := spec(input, false).Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if full.Result.Out != input {
		t.Fatalf("full run echoed %q, want %q", full.Result.Out, input)
	}

	between := 0 // checkpoints taken after the first read and before the last
	for k := uint64(1); k < 8; k++ {
		at := k * full.Result.Cycles / 8
		env := interp.NewSysEnv()
		env.In = bytes.NewReader([]byte(input))
		m, err := core.NewMultiscalar(p, env, core.ScalarConfig(1, false))
		if err != nil {
			t.Fatal(err)
		}
		var snap []byte
		m.ScheduleCheckpoint(at, func() (err error) {
			if snap, err = m.Save(); err == nil {
				err = errInterrupted
			}
			return err
		})
		if _, err := m.Run(); !errors.Is(err, errInterrupted) {
			t.Fatalf("checkpoint@%d: interrupted run: err = %v", at, err)
		}
		same, err := job.Execute(spec(input, true), &job.Runtime{Restore: snap})
		if err != nil {
			t.Fatalf("checkpoint@%d: resumed over the same input: %v", at, err)
		}
		if same.Result.Out != input || !sameResult(same.Result, full.Result) {
			t.Errorf("checkpoint@%d: resumed run echoed %q, want %q\ngot  %+v\nwant %+v", at, same.Result.Out, input, same.Result, full.Result)
		}
		mixed, err := job.Execute(spec(other, false), &job.Runtime{Restore: snap})
		if err != nil {
			t.Fatalf("checkpoint@%d: resumed over another input: %v", at, err)
		}
		read := -1
		for j := 0; j <= len(input); j++ {
			if mixed.Result.Out == input[:j]+other[j:] {
				read = j
			}
		}
		if read < 0 {
			t.Errorf("checkpoint@%d: resumed over %q echoed %q, not a prefix of %q and the rest of %q", at, other, mixed.Result.Out, input, other)
		}
		if read > 0 && read < len(input) {
			between++
		}
	}
	if between == 0 {
		t.Error("no checkpoint fell between two reads")
	}
}

// TestRestoreErrors feeds truncated, foreign and corrupted snapshots to
// Multiscalar.Restore: every case must return an error (or load cleanly,
// for a benign flipped byte) without panicking, and a retired kind is
// refused by name. The cases run under the name of the one restore path.
func TestRestoreErrors(t *testing.T) {
	snap, other := genuine(t)
	t.Run("Multiscalar.Restore", func(t *testing.T) {
		if err := restoreInto(t)(snap); err != nil {
			t.Fatalf("genuine capture rejected: %v", err)
		}
		// Truncations at every length up to the header and a sample beyond.
		for n := 0; n < len(snap); n += 1 + n/3 {
			if err := restoreInto(t)(snap[:n]); err == nil {
				t.Errorf("snap[:%d] accepted", n)
			}
		}
		for _, kind := range retiredKinds {
			err := restoreInto(t)(withKind(snap, kind))
			if name := snapshot.KindName(kind); err == nil || !strings.Contains(err.Error(), name) {
				t.Errorf("kind %d: error %v, want one naming %q", kind, err, name)
			}
		}
		// Bad magic.
		bad := append([]byte{}, snap...)
		bad[0] ^= 0xff
		if err := restoreInto(t)(bad); err == nil {
			t.Error("bad magic accepted")
		}
		// Random single-byte corruptions must never panic (they may load as
		// an error or as a valid-but-different state).
		rng := rand.New(rand.NewSource(59))
		for trial := 0; trial < 64; trial++ {
			bad := append([]byte{}, snap...)
			bad[rng.Intn(len(bad))] ^= byte(1 + rng.Intn(255))
			restoreInto(t)(bad) //nolint:errcheck
		}
		// A capture for a different geometry must be rejected.
		if restoreInto(t)(other) == nil {
			t.Error("capture from a machine of another geometry accepted")
		}
	})
}

// TestHostileCountsDoNotAmplify: a count field is checked against the
// input left at the element's real encoded size before anything is
// allocated from it. The input is a genuine capture cut after its memory
// section's tag, claiming 1<<20 pages over a megabyte of zeros — one
// byte per claimed page, which a check that assumed one-byte elements
// let through to a page map pre-sized for a million entries.
func TestHostileCountsDoNotAmplify(t *testing.T) {
	snap, _ := genuine(t)
	at := bytes.Index(snap, []byte("MEMP"))
	if at < 0 {
		t.Fatal("no memory section in a genuine capture")
	}
	hostile := append([]byte{}, snap[:at+4]...)
	hostile = append(hostile, 0x00, 0x10, 0x00, 0x00) // 1<<20 pages
	hostile = append(hostile, make([]byte, 1<<20+512)...)
	load := restoreInto(t)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := load(hostile)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Error("hostile page count accepted")
	}
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(4*len(hostile)); got > limit {
		t.Errorf("loading %d hostile bytes allocated %d (limit %d)", len(hostile), got, limit)
	}
}

// TestHeader checks the header metadata: a timing machine's snapshot
// carries its kind, the format version and its capture cycle.
func TestHeader(t *testing.T) {
	p := buildTB(t, "wc", asm.ModeScalar)
	meta, err := snapshot.ReadHeader(captureTiming(t, p, core.ScalarConfig(1, false), 100)[0])
	if err != nil {
		t.Fatal(err)
	}
	if meta.Kind != snapshot.KindMultiscalar {
		t.Errorf("header kind = %d, want %d", meta.Kind, snapshot.KindMultiscalar)
	}
	if meta.Version != snapshot.Version {
		t.Errorf("header version = %d, want %d", meta.Version, snapshot.Version)
	}
	if meta.Cycle < 100 {
		t.Errorf("header cycle = %d, before the capture point 100", meta.Cycle)
	}
	if _, err := snapshot.ReadHeader([]byte("short")); err == nil {
		t.Error("ReadHeader(short) = nil error")
	}
}

// TestAdversarialCycleRoundTrip aims checkpoints at the nastiest
// cycles a snapshot can capture instead of random ones: cycles where a
// squash was just emitted (mid-squash window: units restarting,
// sentMask and touch lists partially rebuilt) and cycles where an ARB
// bank was refused an allocation (banks at capacity) — exactly the
// machine states litmus repro artifacts record. The litmus shapes
// drive the machine there deliberately: a capacity-1 ARB under both
// overflow policies. Resumed Results must stay DeepEqual, per-bank
// counters included.
func TestAdversarialCycleRoundTrip(t *testing.T) {
	var progs []*litmus.Program
	for _, params := range []litmus.Params{
		{Shape: "sb", Pad: 128},  // X and Y in the same bank: capacity overflows
		{Shape: "xviol"},         // guaranteed cross-task violation squash
		{Shape: "rand", Seed: 3}, // both, interleaved
	} {
		p, err := litmus.Generate(params)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, p)
	}
	for _, pol := range []arb.OverflowPolicy{arb.PolicyStall, arb.PolicySquash} {
		var sawSquash, sawOverflow bool
		for _, p := range progs {
			cfg := core.DefaultConfig(4, 2, true)
			cfg.ARBEntries = 1
			cfg.ARBPolicy = pol

			// One traced run finds the adversarial cycles; one
			// untraced run pins the reference Result.
			col := &trace.Collector{}
			traced := cfg
			traced.Sink = col
			runMulti(t, p.Prog, traced)
			full := runMulti(t, p.Prog, cfg)

			var cands []uint64
			for _, e := range col.Events {
				switch e.Kind {
				case trace.KTaskSquash:
					// The squash cycle and the restart cycle after it.
					cands = append(cands, e.Cycle, e.Cycle+1)
					sawSquash = true
				case trace.KARBOverflow:
					cands = append(cands, e.Cycle)
					sawOverflow = true
				}
			}
			for _, at := range sampleCycles(cands, full.Cycles, 8) {
				got := interruptAndResume(t, p.Prog, cfg, at)
				if !sameResult(got, full) {
					t.Errorf("%s policy=%d checkpoint@%d: resumed result differs\ngot  %+v\nwant %+v",
						p.Name, pol, at, got, full)
				}
			}
		}
		// Stalling serializes the racing accesses instead of squashing,
		// so mid-squash states are only reachable under PolicySquash;
		// banks-at-capacity states must show up under both policies.
		if !sawOverflow {
			t.Errorf("policy=%d: no ARB overflow cycles — shapes no longer fill capacity-1 banks", pol)
		}
		if pol == arb.PolicySquash && !sawSquash {
			t.Errorf("policy=%d: no squash cycles — shapes no longer provoke squashes", pol)
		}
	}
}

// sampleCycles dedups candidate cycles, keeps those inside (0, limit),
// and spreads at most n picks across the sorted remainder.
func sampleCycles(cands []uint64, limit uint64, n int) []uint64 {
	seen := map[uint64]bool{}
	var cs []uint64
	for _, c := range cands {
		if c > 0 && c < limit && !seen[c] {
			seen[c] = true
			cs = append(cs, c)
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i] < cs[j] })
	if len(cs) <= n {
		return cs
	}
	out := make([]uint64, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, cs[i*len(cs)/n])
	}
	return out
}
