package core_test

import (
	"testing"

	"multiscalar/internal/asm"
	"multiscalar/internal/core"
	"multiscalar/internal/interp"
	"multiscalar/internal/isa"
	"multiscalar/internal/workloads"
)

// These benchmarks measure the cycle-level simulators themselves — the
// hot path under every table msbench produces. The mcycles metric is
// simulated machine cycles per wall-clock second, in millions.

func buildFor(b *testing.B, name string, mode asm.Mode) *isa.Program {
	b.Helper()
	w := workloads.Get(name)
	if w == nil {
		b.Fatalf("workload %s missing", name)
	}
	p, err := w.Build(mode, w.TestScale)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// issueModes are the unit microarchitectures the machine benchmarks build:
// the 1-way in-order unit, which never scans its window, and the 2-way
// out-of-order unit the ledger's exact workloads run, where the window
// path is the cost.
var issueModes = []struct {
	name  string
	width int
	ooo   bool
}{{"1way-inorder", 1, false}, {"2way-ooo", 2, true}}

// benchMachine runs p to completion b.N times on the machine cfg builds
// and reports simulated Mcycles per second, host nanoseconds per executed
// unit Tick, and the share of unit ticks the wakeup scheduler slept.
func benchMachine(b *testing.B, p *isa.Program, cfg core.Config) {
	var cycles, ticked, unitTicks uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := core.NewMultiscalar(p, interp.NewSysEnv(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		res, err := m.Run()
		if err != nil {
			b.Fatal(err)
		}
		cycles += res.Cycles
		ticked += res.CyclesTicked
		unitTicks += res.UnitTicks
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds()/1e6, "mcycles/s")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(unitTicks), "ns/unit-tick")
	b.ReportMetric(100*(1-float64(unitTicks)/float64(uint64(cfg.NumUnits)*ticked)), "%unit-ticks-slept")
}

func BenchmarkScalarCore(b *testing.B) {
	for _, name := range []string{"wc", "compress"} {
		p := buildFor(b, name, asm.ModeScalar)
		for _, mode := range issueModes {
			b.Run(name+"/"+mode.name, func(b *testing.B) {
				benchMachine(b, p, core.ScalarConfig(mode.width, mode.ooo))
			})
		}
	}
}

// BenchmarkStallHeavy measures the wakeup scheduler's target case: a
// single multiscalar unit (every non-head activity serializes) with
// inflated memory and FP latencies, so most cycles are provable stalls.
// The skip/dense sub-benchmarks run the identical simulation with the
// scheduler on and off; their mcycles/s ratio is the scheduler's win.
func BenchmarkStallHeavy(b *testing.B) {
	p := buildFor(b, "compress", asm.ModeMultiscalar)
	for _, mode := range []struct {
		name   string
		noSkip bool
	}{{"skip", false}, {"dense", true}} {
		b.Run(mode.name, func(b *testing.B) {
			cfg := core.DefaultConfig(1, 1, false)
			cfg.DCacheHit = 24 // loads are timed by the cache, not isa.Latencies
			cfg.Latencies.IntMul = 24
			cfg.Latencies.SPMul = 40
			cfg.NoSkip = mode.noSkip
			var cycles, ticked uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m, err := core.NewMultiscalar(p, interp.NewSysEnv(), cfg)
				if err != nil {
					b.Fatal(err)
				}
				res, err := m.Run()
				if err != nil {
					b.Fatal(err)
				}
				cycles += res.Cycles
				ticked += res.CyclesTicked
			}
			b.ReportMetric(float64(cycles)/b.Elapsed().Seconds()/1e6, "mcycles/s")
			b.ReportMetric(100*float64(cycles-ticked)/float64(cycles), "%skipped")
		})
	}
}

func BenchmarkMultiscalarCore8Units(b *testing.B) {
	for _, name := range []string{"wc", "compress", "tomcatv"} {
		p := buildFor(b, name, asm.ModeMultiscalar)
		for _, mode := range issueModes {
			b.Run(name+"/"+mode.name, func(b *testing.B) {
				benchMachine(b, p, core.DefaultConfig(8, mode.width, mode.ooo))
			})
		}
	}
}
