// msbench regenerates the paper's evaluation section: Table 1 (functional
// unit latencies, printed from the configuration), Table 2 (dynamic
// instruction counts), Tables 3 and 4 (speedups and prediction accuracies
// for in-order and out-of-order units), the Section 3 cycle-distribution
// breakdown, and the ablation sweeps.
//
// The flags only select sections of one registry (internal/bench); the
// selected sections run as one fan-out over the process's worker budget
// (GOMAXPROCS runners, -par N), with builds, functional-oracle runs and
// finished simulation points answered from content-keyed stores
// (internal/job). Output is printed in registry order and is
// byte-identical to the sequential path (-par 1).
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

	sel, err := bench.ParseSections(*sections)
	if err != nil {
		fmt.Fprintf(os.Stderr, "msbench: %v\n", err)
		os.Exit(2)
	}
	for name, on := range map[string]bool{
		"breakdown": *breakdown, "ablate": *ablate, "annotate": *annotate,
		"sampled": *sampled, "sweep": *sweep, "mix": *mix,
	} {
		if on {
			sel[name] = true
		}
	}
	if *table >= 1 && *table <= 4 {
		sel[fmt.Sprintf("table%d", *table)] = true
	}
	if *all {
		for _, name := range bench.AllSections() {
			sel[name] = true
		}
	}
	if len(sel) == 0 {
		flag.Usage()
		os.Exit(2)
	}

	scale := bench.Scale(0)
	if *quick {
		scale = -1
	}
	report := bench.NewReport(scale)
	report.Sections, err = bench.RunSections(sel,
		bench.Options{Scale: scale, Units: *units, SampleGate: *sampleGate}, os.Stdout)
	check(err)
	if sel["sampled"] && *sampleGate > 0 {
		fmt.Fprintf(os.Stderr, "msbench: sampled gate passed (in-CI, ≥%.1fx detail reduction)\n", *sampleGate)
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

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "msbench:", err)
		os.Exit(1)
	}
}
