package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"multiscalar/internal/arb"
	"multiscalar/internal/asm"
	"multiscalar/internal/interp"
	"multiscalar/internal/isa"
	"multiscalar/internal/taskpart"
	"multiscalar/internal/trace"
	"multiscalar/internal/workloads"
)

// runSleepAndDense runs prog under cfg twice, with the wakeup scheduler
// on and with Config.NoSkip, each recording a .mstrc stream, and fails
// the test unless the two Results are bit-identical (modulo CyclesTicked
// and UnitTicks, the two fields defined to differ) and the event streams
// byte-identical; src, when given, is printed with the failure. It
// returns the sleeping run's Result.
func runSleepAndDense(t *testing.T, label, src string, prog *isa.Program, cfg Config) *Result {
	t.Helper()
	run := func(noskip bool) (*Result, []byte) {
		c := cfg
		c.NoSkip = noskip
		var buf bytes.Buffer
		w, err := trace.NewWriter(&buf, trace.Meta{NumUnits: c.NumUnits})
		if err != nil {
			t.Fatal(err)
		}
		c.Sink = w
		m, err := NewMultiscalar(prog, interp.NewSysEnv(), c)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		res, err := m.Run()
		if err != nil {
			t.Fatalf("%s (noskip=%v): %v\n%s", label, noskip, err, src)
		}
		if err := w.Close(); err != nil {
			t.Fatalf("%s: trace close: %v", label, err)
		}
		return res, buf.Bytes()
	}
	sleepRes, sleepTrace := run(false)
	denseRes, denseTrace := run(true)

	if denseRes.CyclesTicked != denseRes.Cycles || denseRes.UnitTicks != denseRes.Cycles*uint64(cfg.NumUnits) {
		t.Fatalf("%s: dense run ticked %d cycles and %d unit-cycles of %d x %d units",
			label, denseRes.CyclesTicked, denseRes.UnitTicks, denseRes.Cycles, cfg.NumUnits)
	}
	s, d := *sleepRes, *denseRes
	s.CyclesTicked, d.CyclesTicked = 0, 0
	s.UnitTicks, d.UnitTicks = 0, 0
	if s != d {
		t.Fatalf("%s: sleeping result differs from dense:\nsleep: %+v\ndense: %+v\n%s", label, &s, &d, src)
	}
	if !bytes.Equal(sleepTrace, denseTrace) {
		t.Fatalf("%s: event trace differs (sleep %d bytes, dense %d bytes)\n%s", label, len(sleepTrace), len(denseTrace), src)
	}
	return sleepRes
}

// slept reports whether some unit slept through a cycle others executed.
func slept(r *Result, units int) bool { return r.UnitTicks < r.CyclesTicked*uint64(units) }

// TestSkipMatchesDense is the wakeup scheduler's equivalence property
// test: across random programs and machine configurations, a run with
// per-unit sleeping and whole-machine jumps must produce the Result and
// the .mstrc event stream of the same run with Config.NoSkip set. The
// configurations deliberately include the corners the scheduler
// special-cases: single units (sleep degenerates to the global jump),
// 16 units, multi-cycle ring hops and a zero-cycle ring (a delivery wakes
// a later unit in the sweep that sends it), squashing ARB overflow with tiny
// ARBs, shared FP units, static task prediction, and windows of 40 and
// 200 entries, whose masks span several words (internal/pu window.go).
func TestSkipMatchesDense(t *testing.T) {
	trials := 120
	if testing.Short() {
		trials = 8
	}
	sawSkip, sawSleep := false, false
	for trial := 0; trial < trials; trial++ {
		g := &progGen{r: rand.New(rand.NewSource(int64(7000 + trial)))}
		src := g.generate()

		prog, err := asm.Assemble(src, asm.ModeMultiscalar)
		if err != nil {
			t.Fatalf("trial %d: assemble: %v\n%s", trial, err, src)
		}
		if _, err := taskpart.Run(prog, taskpart.Options{SuppressAllCalls: g.r.Intn(2) == 0}); err != nil {
			t.Fatalf("trial %d: partition: %v\n%s", trial, err, src)
		}

		units := []int{1, 2, 4, 8, 16}[g.r.Intn(5)]
		cfg := DefaultConfig(units, 1+g.r.Intn(2), g.r.Intn(2) == 0)
		cfg.MaxCycles = 50_000_000
		cfg.RingLatency = g.r.Intn(4)
		switch g.r.Intn(4) {
		case 0:
			cfg.ARBPolicy = arb.PolicySquash
			cfg.ARBEntries = 2
		case 1:
			cfg.SharedFPUnits = 1
		case 2:
			cfg.StaticPredict = true
		}
		cfg.ROBSize = []int{16, 16, 40, 200}[g.r.Intn(4)]

		label := fmt.Sprintf("trial %d (units=%d ring=%d rob=%d)", trial, units, cfg.RingLatency, cfg.ROBSize)
		res := runSleepAndDense(t, label, src, prog, cfg)
		sawSkip = sawSkip || res.CyclesTicked < res.Cycles
		sawSleep = sawSleep || slept(res, units)
	}
	if !sawSkip {
		t.Error("no run ever jumped over a cycle: the whole-machine skip never engaged")
	}
	if !sawSleep {
		t.Error("no unit ever slept through an executed cycle: per-unit wakeups never engaged")
	}
}

// TestWorkloadsSkipMatchesDense holds the skip contract on the suite's
// real programs, with their head syscalls: every workload at test scale
// runs to the same Result and the same .mstrc bytes sleeping and dense,
// on the machines of Tables 3 and 4 (the scalar baseline and 4 and 8
// units, each 1- and 2-way, in-order and out-of-order), on 16 units, on
// capacity-1 ARB banks under both overflow policies, and on the machines
// of msbench's ablate section with the workload each ablates: zero- and
// 8-cycle ring hops (compress), one shared FP/complex unit (tomcatv),
// static task prediction (gcc), forward bits and releases stripped so
// only the completion flush communicates (wc), and 1 and 2 units
// (example).
func TestWorkloadsSkipMatchesDense(t *testing.T) {
	type machine struct {
		name  string
		mode  asm.Mode
		strip bool   // forward bits cleared, releases made nops
		only  string // the one workload to run, or "" for all
		cfg   Config
	}
	var machines []machine
	for _, width := range []int{1, 2} {
		for _, ooo := range []bool{false, true} {
			machines = append(machines, machine{fmt.Sprintf("scalar %dw ooo=%v", width, ooo), asm.ModeScalar, false, "", ScalarConfig(width, ooo)})
			for _, units := range []int{4, 8} {
				machines = append(machines, machine{fmt.Sprintf("%du %dw ooo=%v", units, width, ooo), asm.ModeMultiscalar, false, "", DefaultConfig(units, width, ooo)})
			}
		}
	}
	machines = append(machines, machine{"16u 2w ooo=true", asm.ModeMultiscalar, false, "", DefaultConfig(16, 2, true)})
	for _, pol := range []arb.OverflowPolicy{arb.PolicyStall, arb.PolicySquash} {
		c := DefaultConfig(8, 2, true)
		c.ARBEntries, c.ARBPolicy = 1, pol
		machines = append(machines, machine{fmt.Sprintf("8u 2w ooo=true arb=1/%v", pol), asm.ModeMultiscalar, false, "", c})
	}
	ablation := func(only, name string, strip bool, set func(*Config)) {
		c := DefaultConfig(8, 1, false)
		set(&c)
		machines = append(machines, machine{"8u 1w " + name, asm.ModeMultiscalar, strip, only, c})
	}
	ablation("compress", "ring=0", false, func(c *Config) { c.RingLatency = 0 })
	ablation("compress", "ring=8", false, func(c *Config) { c.RingLatency = 8 })
	ablation("tomcatv", "shared-fp=1", false, func(c *Config) { c.SharedFPUnits = 1 })
	ablation("gcc", "static-predict", false, func(c *Config) { c.StaticPredict = true })
	ablation("wc", "no-forwarding", true, func(*Config) {})
	for _, units := range []int{1, 2} {
		machines = append(machines, machine{fmt.Sprintf("%du 1w ooo=false", units), asm.ModeMultiscalar, false, "example", DefaultConfig(units, 1, false)})
	}
	for _, name := range workloads.Names() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			w := workloads.Get(name)
			type build struct {
				mode  asm.Mode
				strip bool
			}
			progs := map[build]*isa.Program{}
			for _, mc := range machines {
				if mc.only != "" && mc.only != name {
					continue
				}
				b := build{mc.mode, mc.strip}
				p := progs[b]
				if p == nil {
					var err error
					if p, err = w.Build(mc.mode, w.TestScale); err != nil {
						t.Fatal(err)
					}
					if mc.strip {
						p = p.Clone()
						for i := range p.Text {
							p.Text[i].Fwd = false
							if p.Text[i].Op == isa.OpRelease {
								p.Text[i].Op = isa.OpNop
							}
						}
					}
					progs[b] = p
				}
				runSleepAndDense(t, name+" "+mc.name, "", p, mc.cfg)
			}
		})
	}
}

// TestSleepHooks drives each cross-unit input of a sleeping unit (the
// list in docs/perf.md) with a program built to hit it, and requires
// the sleeping run to match the dense one: drop a hook and the sleeper
// misses its cue.
func TestSleepHooks(t *testing.T) {
	fpDense := `
	.data
vals:	.double 1.5, 2.5, 3.5, 4.5, 5.5, 6.5, 7.5, 8.5, 9.5, 10.5, 11.5, 12.5
acc:	.space 96
	.text
main:
	li   $s0, 12
	la   $s1, vals
	la   $s2, acc
	j    loop !s
loop:
	move  $t8, $s1
	move  $t9, $s2
	addi  $s1, $s1, 8 !f
	addi  $s2, $s2, 8 !f
	addi  $s0, $s0, -1 !f
	l.d   $f0, 0($t8)
	mul.d $f2, $f0, $f0
	mul.d $f4, $f2, $f0
	add.d $f6, $f4, $f2
	div.d $f8, $f6, $f0
	mul   $t0, $s0, $s0
	add.d $f8, $f8, $f4
	s.d   $f8, 0($t9)
	bnez  $s0, loop !s
end:
	l.d  $f0, acc+88
	mfc1 $a0, $f0
	li $v0, 1
	syscall
` + exitSeq + `
	.task main targets=loop create=$s0,$s1,$s2
	.task loop targets=loop,end create=$s0,$s1,$s2,$t0,$t8,$t9,$f0,$f2,$f4,$f6,$f8
	.task end entry=end
`
	syscallLoop := `
main:
	li $s0, 40
	j  loop !s
loop:
	move $a0, $s0
	addi $s0, $s0, -1 !f
	li   $v0, 1
	syscall
	mul  $t0, $a0, $a0
	mul  $t0, $t0, $t0
	mul  $t0, $t0, $t0
	bnez $s0, loop !s
end:
` + exitSeq + `
	.task main targets=loop create=$s0
	.task loop targets=loop,end create=$s0,$a0,$v0,$t0
	.task end entry=end
`
	flushOnly := `
main:
	li $s0, 20
	li $s1, 0
	j  loop !s
loop:
	add  $s1, $s1, $s0
	mul  $t0, $s0, $s0
	mul  $t0, $t0, $s0
	addi $s0, $s0, -1
	bnez $s0, loop !s
end:
	move $a0, $s1
	li $v0, 1
	syscall
` + exitSeq + `
	.task main targets=loop create=$s0,$s1
	.task loop targets=loop,end create=$s0,$s1,$t0
	.task end entry=end
`
	cases := []struct {
		name  string
		src   string
		units int
		tweak func(*Config)
		hit   func(*Result) bool // the scenario actually occurred
	}{
		// A failed shared-FU claim depends on the other units' claims this
		// cycle: the loser must stay awake (it is marked as progress).
		{"shared-fu-loser", fpDense, 4,
			func(c *Config) { c.SharedFPUnits = 1 },
			func(r *Result) bool { return r.TasksRetired > 12 }},
		// An older unit's ARB overflow squashes and restarts the tail from
		// inside its own Tick, mid-sweep.
		{"arb-overflow-restarts-tail", parLoop, 4,
			func(c *Config) { c.ARBPolicy = arb.PolicySquash; c.ARBEntries = 1 },
			func(r *Result) bool { return r.ARBSquashes > 0 }},
		// A memory-order violation restarts the violator and its successors.
		{"memory-violation-restart", memDep, 8, nil,
			func(r *Result) bool { return r.MemSquashes > 0 }},
		// A non-head unit parks on a syscall until it becomes the head.
		{"syscall-waits-for-head", syscallLoop, 8, nil,
			func(r *Result) bool { return r.TasksRetired == 42 && strings.HasSuffix(r.Out, "87654321") }},
		// No forward bits: successors sleep on registers that only the
		// predecessor's completion flush (after the sweep) delivers.
		{"completion-flush-delivery", flushOnly, 4,
			func(c *Config) { c.RingLatency = 3 },
			func(r *Result) bool { return r.RingSends > 0 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prog, err := asm.Assemble(tc.src, asm.ModeMultiscalar)
			if err != nil {
				t.Fatal(err)
			}
			for _, ooo := range []bool{false, true} {
				cfg := DefaultConfig(tc.units, 2, ooo)
				cfg.MaxCycles = 50_000_000
				if tc.tweak != nil {
					tc.tweak(&cfg)
				}
				res := runSleepAndDense(t, fmt.Sprintf("ooo=%v", ooo), "", prog, cfg)
				if !tc.hit(res) {
					t.Errorf("ooo=%v: the scenario did not occur: %+v", ooo, res)
				}
				if !slept(res, tc.units) {
					t.Errorf("ooo=%v: no unit ever slept (%d unit ticks over %d cycles)", ooo, res.UnitTicks, res.CyclesTicked)
				}
			}
		})
	}
}

// TestIdleUnitsSleep pins the cheapest case of per-unit sleeping: a unit
// with no task is ticked once, not once per cycle. Twenty loop tasks pass
// $s0/$s1 around eight units, then one long serial task runs alone.
func TestIdleUnitsSleep(t *testing.T) {
	src := `
main:
	li $s0, 20
	li $s1, 0
	j  loop !s
loop:
	add  $s1, $s1, $s0 !f
	addi $s0, $s0, -1 !f
	bnez $s0, loop !s
end:
	li $t0, 2000
tail:
	add  $s1, $s1, $t0
	addi $t0, $t0, -1
	bnez $t0, tail
	move $a0, $s1
	li $v0, 1
	syscall
` + exitSeq + `
	.task main targets=loop create=$s0,$s1
	.task loop targets=loop,end create=$s0,$s1
	.task end entry=end
`
	prog, err := asm.Assemble(src, asm.ModeMultiscalar)
	if err != nil {
		t.Fatal(err)
	}
	res := runSleepAndDense(t, "serial tail on 8 units", "", prog, DefaultConfig(8, 1, false))
	if res.Out != "2001210" {
		t.Fatalf("out = %q", res.Out)
	}
	if res.UnitTicks > res.CyclesTicked+res.CyclesTicked/4 {
		t.Errorf("%d unit ticks over %d executed cycles with one busy unit for most of the run: idle units are not sleeping",
			res.UnitTicks, res.CyclesTicked)
	}
}

// TestScalarSkipMatchesDense is the equivalence property on the scalar
// baseline: generated binaries without descriptors on the one-unit
// configuration.
func TestScalarSkipMatchesDense(t *testing.T) {
	trials := 60
	if testing.Short() {
		trials = 8
	}
	sawSkip := false
	for trial := 0; trial < trials; trial++ {
		g := &progGen{r: rand.New(rand.NewSource(int64(8000 + trial)))}
		src := g.generate()
		prog, err := asm.Assemble(src, asm.ModeScalar)
		if err != nil {
			t.Fatalf("trial %d: assemble: %v\n%s", trial, err, src)
		}

		cfg := ScalarConfig(1+g.r.Intn(2), g.r.Intn(2) == 0)
		run := func(noskip bool) *Result {
			c := cfg
			c.NoSkip = noskip
			res, err := newScalarMachine(t, prog, c).Run()
			if err != nil {
				t.Fatalf("trial %d (noskip=%v): %v\n%s", trial, noskip, err, src)
			}
			return res
		}
		skipRes := run(false)
		denseRes := run(true)
		if denseRes.CyclesTicked != denseRes.Cycles {
			t.Fatalf("trial %d: dense run ticked %d of %d cycles",
				trial, denseRes.CyclesTicked, denseRes.Cycles)
		}
		if skipRes.CyclesTicked < skipRes.Cycles {
			sawSkip = true
		}
		s, d := *skipRes, *denseRes
		s.CyclesTicked, d.CyclesTicked = 0, 0
		s.UnitTicks, d.UnitTicks = 0, 0
		if s != d {
			t.Fatalf("trial %d: skip result differs from dense:\nskip:  %+v\ndense: %+v\n%s",
				trial, &s, &d, src)
		}
	}
	if !sawSkip {
		t.Fatal("no scalar run ever skipped a cycle")
	}
}
