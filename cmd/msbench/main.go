// msbench regenerates the paper's evaluation section: Table 1 (functional
// unit latencies, printed from the configuration), Table 2 (dynamic
// instruction counts), Tables 3 and 4 (speedups and prediction accuracies
// for in-order and out-of-order units), the Section 3 cycle-distribution
// breakdown, and the ablation sweeps.
//
// Independent simulation jobs run concurrently on a worker pool bounded
// by GOMAXPROCS, with builds, functional-oracle runs and finished
// simulation points answered from content-keyed stores (internal/job);
// all tables are byte-identical to the sequential path (-par 1).
//
// Usage:
//
//	msbench -table 3              one table at full benchmark scale
//	msbench -all -quick           everything at the fast test scale
//	msbench -breakdown -units 8
//	msbench -ablate
//	msbench -all -par 1           force the sequential path
//	msbench -all -json out.json   also write a timing/throughput report
//	msbench -all -noskip          force the dense per-cycle simulation loop
//	msbench -sections table3,sweep
//	                              run an arbitrary subset of sections by name
//	msbench -sampled -sample-gate 10
//	                              sampled-simulation estimates vs exact long
//	                              runs (not part of -all; docs/perf.md)
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/debug"
	"runtime/pprof"
	"strings"

	"multiscalar/internal/bench"
	"multiscalar/internal/isa"
	"multiscalar/internal/job"
)

func main() {
	// Batch tool: trade heap headroom for throughput. The timing cores
	// allocate steadily (ARB entries, cache fills, result assembly) and
	// the default GOGC=100 spends a double-digit share of a full run in
	// collection and write-barrier work on the 1-core CI runner.
	debug.SetGCPercent(400)
	var (
		table      = flag.Int("table", 0, "print one table (1-4)")
		all        = flag.Bool("all", false, "print every table")
		breakdown  = flag.Bool("breakdown", false, "print the Section 3 cycle distribution")
		ablate     = flag.Bool("ablate", false, "run the ablation sweeps")
		annotate   = flag.Bool("annotate", false, "compare hand annotations against the optimizer's (not part of -all; see docs/annotate.md)")
		sampled    = flag.Bool("sampled", false, "compare sampled-simulation estimates against exact long runs (not part of -all; see docs/perf.md)")
		sampleGate = flag.Float64("sample-gate", 0, "with -sampled: exit 1 unless every workload's exact cycles land in the 95% CI and detailed cycles shrink by at least this factor")
		sweep      = flag.Bool("sweep", false, "print speedup-vs-units curves (figure-style view)")
		mix        = flag.Bool("mix", false, "print the dynamic instruction mix of the benchmarks")
		units      = flag.Int("units", 8, "unit count for -breakdown")
		quick      = flag.Bool("quick", false, "use fast test-scale inputs")
		par        = flag.Int("par", 0, "cap concurrent simulation jobs (default GOMAXPROCS; 1 forces the sequential path)")
		jsonOut    = flag.String("json", "", "write a machine-readable timing/throughput report to this file (- for stdout)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		noskip     = flag.Bool("noskip", false, "disable the simulator's wakeup scheduler (dense per-cycle ticking; tables are byte-identical either way)")
		sections   = flag.String("sections", "", "comma-separated sections to run ("+strings.Join(bench.SectionNames(), ",")+")")
	)
	flag.Parse()

	if *par > 0 {
		job.SetWorkers(*par)
	}
	bench.SetNoSkip(*noskip)
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		check(err)
		check(pprof.StartCPUProfile(f))
		defer pprof.StopCPUProfile()
	}

	// -sections picks an arbitrary subset by name, so a regression hunt on
	// one table doesn't pay for the full -all run. The name registry lives
	// in the bench package so this list, the flag help, and the error
	// message can't drift apart.
	sel, err := bench.ParseSections(*sections)
	if err != nil {
		fmt.Fprintf(os.Stderr, "msbench: %v\n", err)
		os.Exit(2)
	}
	want := func(name string) bool { return sel[name] }

	scale := bench.Scale(0)
	if *quick {
		scale = -1
	}
	report := bench.NewReport(scale)

	ran := false
	if *all || *table == 1 || want("table1") {
		report.Time("table1", printTable1)
		ran = true
	}
	if *all || *table == 2 || want("table2") {
		report.Time("table2", func() {
			rows, err := bench.Table2(scale)
			check(err)
			fmt.Println(bench.FormatTable2(rows))
		})
		ran = true
	}
	if *all || *table == 3 || want("table3") {
		report.Time("table3", func() {
			for _, width := range []int{1, 2} {
				rows, err := bench.PerfTable(width, false, scale)
				check(err)
				fmt.Println(bench.FormatPerfTable(
					fmt.Sprintf("Table 3: in-order %d-way issue units", width), rows))
			}
		})
		ran = true
	}
	if *all || *table == 4 || want("table4") {
		report.Time("table4", func() {
			for _, width := range []int{1, 2} {
				rows, err := bench.PerfTable(width, true, scale)
				check(err)
				fmt.Println(bench.FormatPerfTable(
					fmt.Sprintf("Table 4: out-of-order %d-way issue units", width), rows))
			}
		})
		ran = true
	}
	if *breakdown || *all || want("breakdown") {
		report.Time("breakdown", func() {
			rows, err := bench.Breakdown(*units, scale)
			check(err)
			fmt.Println(bench.FormatBreakdown(rows))
		})
		ran = true
	}
	if *ablate || *all || want("ablate") {
		report.Time("ablate", func() { runAblations(scale) })
		ran = true
	}
	// Deliberately not part of -all: the -all output stays byte-identical
	// with the annotation optimizer present but unused.
	if *annotate || want("annotate") {
		report.Time("annotate", func() {
			rows, err := bench.AnnotateAblation(scale)
			check(err)
			fmt.Println(bench.FormatAnnotate(rows))
		})
		ran = true
	}
	// Also not part of -all, for the same byte-identity reason: sampled
	// runs are estimates, never inputs to the paper tables.
	if *sampled || want("sampled") {
		report.Time("sampled", func() {
			rows, err := bench.RunSampled(scale)
			check(err)
			fmt.Println(bench.FormatSampled(rows))
			if *sampleGate > 0 {
				if fails := bench.GateSampled(rows, *sampleGate); len(fails) > 0 {
					fmt.Fprintln(os.Stderr, "msbench: sampled-simulation gate failed:")
					for _, f := range fails {
						fmt.Fprintln(os.Stderr, "  "+f)
					}
					os.Exit(1)
				}
				fmt.Fprintf(os.Stderr, "msbench: sampled gate passed (in-CI, ≥%.1fx detail reduction)\n", *sampleGate)
			}
		})
		ran = true
	}
	if *sweep || *all || want("sweep") {
		report.Time("sweep", func() {
			curves, err := bench.SpeedupCurves(1, false, scale, []int{2, 4, 8, 16})
			check(err)
			fmt.Println(bench.FormatCurves("Speedup vs unit count (1-way in-order units)", curves))
		})
		ran = true
	}
	if *mix || *all || want("mix") {
		report.Time("mix", func() {
			rows, err := bench.Mixes(scale)
			check(err)
			fmt.Println(bench.FormatMixes(rows))
		})
		ran = true
	}
	if !ran {
		flag.Usage()
		os.Exit(2)
	}

	if *jsonOut != "" {
		data, err := report.Finalize()
		check(err)
		if *jsonOut == "-" {
			fmt.Println(string(data))
		} else {
			check(os.WriteFile(*jsonOut, append(data, '\n'), 0o644))
		}
	}
}

func printTable1() {
	l := isa.Table1()
	fmt.Println("Table 1: functional unit latencies (cycles)")
	fmt.Printf("  %-12s %2d    %-14s %2d\n", "Add/Sub", l.IntAddSub, "SP Add/Sub", l.SPAddSub)
	fmt.Printf("  %-12s %2d    %-14s %2d\n", "Shift/Logic", l.ShiftLogic, "SP Multiply", l.SPMul)
	fmt.Printf("  %-12s %2d    %-14s %2d\n", "Multiply", l.IntMul, "SP Divide", l.SPDiv)
	fmt.Printf("  %-12s %2d    %-14s %2d\n", "Divide", l.IntDiv, "DP Add/Sub", l.DPAddSub)
	fmt.Printf("  %-12s %2d    %-14s %2d\n", "Mem Store", l.MemStore, "DP Multiply", l.DPMul)
	fmt.Printf("  %-12s %2d    %-14s %2d\n", "Mem Load", l.MemLoad, "DP Divide", l.DPDiv)
	fmt.Printf("  %-12s %2d\n\n", "Branch", l.Branch)
}

func runAblations(scale bench.Scale) {
	rows, err := bench.UnitSweep("example", scale, []int{1, 2, 4, 8, 16})
	check(err)
	fmt.Println(bench.FormatAblation("Ablation: unit count (example)", rows))

	rows, err = bench.RingLatencySweep("compress", scale, []int{0, 1, 2, 4, 8})
	check(err)
	fmt.Println(bench.FormatAblation("Ablation: ring hop latency (compress, 8 units)", rows))

	rows, err = bench.ARBSweep("tomcatv", scale, []int{2, 8, 256})
	check(err)
	fmt.Println(bench.FormatAblation("Ablation: ARB capacity and overflow policy (tomcatv, 8 units)", rows))

	rows, err = bench.ForwardingAblation("wc", scale)
	check(err)
	fmt.Println(bench.FormatAblation("Ablation: early forwarding vs completion flush (wc, 8 units)", rows))

	rows, err = bench.PredictorAblation("gcc", scale)
	check(err)
	fmt.Println(bench.FormatAblation("Ablation: PAs vs static task prediction (gcc, 8 units)", rows))

	rows, err = bench.SharedFUAblation("tomcatv", scale)
	check(err)
	fmt.Println(bench.FormatAblation("Ablation: private vs shared FP/complex units (tomcatv, 8 units)", rows))
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "msbench:", err)
		os.Exit(1)
	}
}
