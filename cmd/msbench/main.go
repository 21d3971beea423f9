// msbench regenerates the paper's evaluation section: Table 1 (functional
// unit latencies, printed from the configuration), Table 2 (dynamic
// instruction counts), Tables 3 and 4 (speedups and prediction accuracies
// for in-order and out-of-order units), the Section 3 cycle-distribution
// breakdown, and the ablation sweeps.
//
// Each is a section of one registry (internal/bench), picked by name with
// -sections or all at once with -all; the selected sections run as one
// fan-out over the process's worker budget (GOMAXPROCS runners, -par N),
// with builds, functional-oracle runs and finished simulation points
// answered from content-keyed stores (internal/job). Output is printed in
// registry order and is byte-identical to the sequential path (-par 1).
//
// Usage:
//
//	msbench -sections table3      one table at full benchmark scale
//	msbench -all -quick           everything at the fast test scale
//	msbench -sections breakdown,ablate
//	msbench -all -par 1           force the sequential path
//	msbench -all -json out.json   also write a timing/throughput report
//	msbench -all -noskip          force the dense per-cycle simulation loop
//	msbench -sections sampled -sample-gate 10
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
		all        = flag.Bool("all", false, "run every section of the paper's evaluation")
		sections   = flag.String("sections", "", "comma-separated sections to run ("+strings.Join(bench.SectionNames(), ",")+")")
		sampleGate = flag.Float64("sample-gate", 0, "with the sampled section: exit 1 unless every workload's exact cycles land in the 95% CI and detailed cycles shrink by at least this factor")
		quick      = flag.Bool("quick", false, "use fast test-scale inputs")
		par        = flag.Int("par", 0, "cap concurrent simulation jobs (default GOMAXPROCS; 1 forces the sequential path)")
		jsonOut    = flag.String("json", "", "write a machine-readable timing/throughput report to this file (- for stdout)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		noskip     = flag.Bool("noskip", false, "disable the simulator's wakeup scheduler (dense per-cycle ticking; tables are byte-identical either way)")
	)
	flag.Parse()

	sel, err := bench.ParseSections(*sections)
	if err != nil {
		fmt.Fprintf(os.Stderr, "msbench: %v\n", err)
		os.Exit(2)
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
	if *sampleGate != 0 && !sel["sampled"] {
		fmt.Fprintln(os.Stderr, "msbench: -sample-gate applies only to the sampled section (-sections sampled)")
		os.Exit(2)
	}

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

	scale := bench.Scale(0)
	if *quick {
		scale = -1
	}
	report := bench.NewReport(scale)
	report.Sections, err = bench.RunSections(sel,
		bench.Options{Scale: scale, SampleGate: *sampleGate}, os.Stdout)
	check(err)
	if *sampleGate > 0 {
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
