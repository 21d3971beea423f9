// mssim runs one program (a benchmark from the suite or an assembly file)
// on the functional interpreter, the scalar baseline, or a multiscalar
// configuration, and prints the run's statistics.
//
// Usage:
//
//	mssim -w example -units 8 -width 2 -ooo
//	mssim -f prog.s -units 0            (functional interpretation only)
//	mssim -f prog.s -units 1            (scalar baseline)
//	mssim -w compress -sample           (sampled estimate with a 95% CI
//	                                    instead of an exact run; docs/perf.md)
//
// A flag the chosen mode would ignore is a usage error (exit 2).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"multiscalar"
	"multiscalar/internal/job"
	"multiscalar/internal/pu"
)

func main() {
	var (
		workload = flag.String("w", "", "benchmark name (see -list)")
		file     = flag.String("f", "", "assembly source file")
		scale    = flag.Int("scale", 0, "problem scale (0 = workload default)")
		units    = flag.Int("units", 8, "processing units (0 = interpret only, 1 = scalar)")
		width    = flag.Int("width", 1, "issue width per unit (1 or 2)")
		ooo      = flag.Bool("ooo", false, "out-of-order issue within units")
		list     = flag.Bool("list", false, "list benchmark names")
		mstrc    = flag.String("mstrc", "", "record an event trace to this .mstrc file (render with mstrace)")
		stdin    = flag.Bool("stdin", false, "feed standard input to the program (read-char syscall)")
		showOut  = flag.Bool("out", false, "print the program's output")
		stats    = flag.Bool("stats", false, "print simulator statistics (cycles simulated vs ticked, unit ticks, skip and sleep ratios)")
		noskip   = flag.Bool("noskip", false, "disable the wakeup scheduler (dense per-cycle ticking; results are identical)")
		sampled  = flag.Bool("sample", false, "estimate cycles by sampled simulation instead of simulating every cycle (docs/perf.md)")
	)
	flag.Parse()

	// A flag the chosen mode would silently ignore is a usage error.
	given := map[string]bool{"mstrc": *mstrc != "", "sample": *sampled, "noskip": *noskip, "stats": *stats}
	refuse := func(mode string, names ...string) {
		for _, n := range names {
			if given[n] {
				fmt.Fprintf(os.Stderr, "mssim: %s cannot be combined with -%s\n", mode, n)
				os.Exit(2)
			}
		}
	}
	if *units <= 0 {
		refuse(fmt.Sprintf("-units %d", *units), "mstrc", "sample", "noskip", "stats")
	}
	if *sampled {
		refuse("-sample", "mstrc", "stats")
	}

	if *list {
		for _, n := range multiscalar.WorkloadNames() {
			w := multiscalar.GetWorkload(n)
			fmt.Printf("%-10s %s\n", n, w.Description)
		}
		return
	}

	cfg, mode := job.Machine(*units, *width, *ooo)
	prog, err := buildProgram(*workload, *file, *scale, mode)
	if err != nil {
		fatal(err)
	}

	var runOpts []multiscalar.RunOption
	if *stdin {
		runOpts = append(runOpts, multiscalar.WithStdin(os.Stdin))
	}

	if *units <= 0 {
		res, err := multiscalar.Interpret(prog, runOpts...)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("instructions: %d\nexit code: %d\n", res.Instructions, res.ExitCode)
		if *showOut {
			fmt.Printf("output: %s\n", res.Out)
		}
		return
	}

	cfg.NoSkip = *noskip
	if *sampled {
		est, err := multiscalar.RunSampled(prog, cfg, runOpts...)
		if err != nil {
			fatal(err)
		}
		printSampled(est)
		if *showOut {
			fmt.Printf("output: %s\n", est.Out)
		}
		return
	}
	if *mstrc != "" {
		f, err := os.Create(*mstrc)
		if err != nil {
			fatal(err)
		}
		tw, err := multiscalar.NewTraceWriter(f, prog, cfg, label(*workload, *file))
		if err != nil {
			fatal(err)
		}
		defer func() {
			if err := tw.Close(); err != nil {
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
		}()
		runOpts = append(runOpts, multiscalar.WithTrace(tw))
	}
	res, err := multiscalar.Run(prog, cfg, runOpts...)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("cycles:       %d\n", res.Cycles)
	fmt.Printf("instructions: %d\n", res.Committed)
	fmt.Printf("IPC:          %.3f\n", res.IPC())
	if *units > 1 {
		fmt.Printf("tasks:        %d retired, %d squashed (control %d, memory %d, arb %d)\n",
			res.TasksRetired, res.TasksSquashed, res.CtlSquashes, res.MemSquashes, res.ARBSquashes)
		fmt.Printf("prediction:   %.1f%% of %d\n", 100*res.PredAccuracy(), res.Predictions)
		total := float64(res.Cycles) * float64(*units)
		fmt.Printf("unit-cycles:  compute %.1f%%, wait-pred %.1f%%, wait-intra %.1f%%, wait-retire %.1f%%, idle %.1f%%, squashed %.1f%%\n",
			100*float64(res.Activity[pu.ActCompute])/total,
			100*float64(res.Activity[pu.ActWaitPred])/total,
			100*float64(res.Activity[pu.ActWaitIntra])/total,
			100*float64(res.Activity[pu.ActWaitRetire])/total,
			100*float64(res.Activity[pu.ActIdle])/total,
			100*float64(res.SquashedCycles)/total)
	}
	fmt.Printf("memory:       %d icache misses, %d dcache misses, %d bank conflicts, %d bus requests\n",
		res.ICacheMisses, res.DCacheMisses, res.DBankConflicts, res.BusRequests)
	if res.ARBViolations+res.ARBStoreForwards+res.ARBAllocs > 0 {
		fmt.Printf("arb:          %d violations, %d store-forwards, %d overflows, %d allocs, %d peak-bank-occupancy\n",
			res.ARBViolations, res.ARBStoreForwards, res.ARBOverflows,
			res.ARBAllocs, res.ARBPeakOccupancy)
	}
	if *stats {
		skipped := res.Cycles - res.CyclesTicked
		pct := 0.0
		if res.Cycles > 0 {
			pct = 100 * float64(skipped) / float64(res.Cycles)
		}
		slept := 0.0
		if unitCycles := float64(res.CyclesTicked) * float64(*units); unitCycles > 0 {
			slept = 100 * (1 - float64(res.UnitTicks)/unitCycles)
		}
		fmt.Printf("simulator:    %d cycles_simulated, %d cycles_ticked (%.1f%% skipped), %d unit_ticks (%.1f%% slept)\n",
			res.Cycles, res.CyclesTicked, pct, res.UnitTicks, slept)
	}
	if *showOut {
		fmt.Printf("output: %s\n", res.Out)
	}
}

func printSampled(est *multiscalar.SampleEstimate) {
	fmt.Printf("sampled:      %d instrs, %d windows (window %d, warm-up %d, period %d instrs)\n",
		est.TotalInstrs, est.Windows,
		est.Params.WindowInstrs, est.Params.WarmupInstrs, est.Params.PeriodInstrs)
	if est.FullDetail {
		fmt.Printf("              run too short to sample: exact full-detail result\n")
	}
	fmt.Printf("cycles:       %d estimated, 95%% CI [%d, %d]\n",
		est.EstCycles, est.CyclesLow, est.CyclesHi)
	fmt.Printf("cpi:          %.4f mean, %.4f stderr\n", est.MeanCPI, est.StdErrCPI)
	fmt.Printf("detail cost:  %d cycles over %d instrs (%.1f%% of the run's instructions)\n",
		est.DetailedCycles, est.DetailedInstrs,
		100*float64(est.DetailedInstrs)/float64(est.TotalInstrs))
}

func buildProgram(workload, file string, scale int, mode multiscalar.Mode) (*multiscalar.Program, error) {
	if workload != "" {
		w := multiscalar.GetWorkload(workload)
		if w == nil {
			return nil, fmt.Errorf("unknown workload %q (try -list)", workload)
		}
		return w.Build(mode, scale)
	}
	if file == "" {
		return nil, fmt.Errorf("one of -w or -f is required")
	}
	if strings.HasSuffix(file, ".msb") {
		f, err := os.Open(file)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return multiscalar.LoadProgram(f)
	}
	src, err := os.ReadFile(file)
	if err != nil {
		return nil, err
	}
	res, err := multiscalar.Assemble(string(src), multiscalar.WithMode(mode))
	if err != nil {
		return nil, err
	}
	return res.Prog, nil
}

func label(workload, file string) string {
	if workload != "" {
		return workload
	}
	return file
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mssim:", err)
	os.Exit(1)
}
