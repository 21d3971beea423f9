// Command benchmark is the repository's layered performance ledger: five
// named workloads over fixed work, ten end-to-end metrics, and a traced
// run that adds spans, per-layer probes and a CPU-profile fold. It
// measures the simulator from outside — nothing outside this directory
// knows it exists. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
)

// defaultSeed seeds the serve_mix request plan and the probe streams
// when -seed is not given.
const defaultSeed = 1995

func main() {
	var (
		name      = flag.String("workload", "", "run this workload in this process (default: all five, each in a fresh process)")
		seed      = flag.Int64("seed", defaultSeed, "seed of the serve_mix request plan and the probe streams")
		seconds   = flag.Float64("seconds", defaultRunSeconds, "measure for this long: fixed-work passes repeat until it has gone by (at least 3)")
		traced    = flag.Int("trace", 0, "1: the traced run (spans, layer probes, CPU-profile fold), reporting the per-layer metrics")
		layers    = flag.Bool("layers", false, "without -workload: make every workload's traced run as well")
		out       = flag.String("out", "", "without -workload: write the result set to this file, for -compare")
		compare   = flag.Bool("compare", false, "compare two result sets against the declared bounds: -compare A.json B.json")
		selfcheck = flag.Bool("selfcheck", false, "run two full sets of this build and fail unless they agree")
		descr     = flag.Bool("describe", false, "print BENCHMARK.json as the metric tables define it")
	)
	flag.Parse()
	var err error
	switch {
	case *descr:
		var doc []byte
		if doc, err = describe(); err == nil {
			_, err = os.Stdout.Write(doc)
		}
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare takes two result-set files")
			break
		}
		err = compareFiles(flag.Arg(0), flag.Arg(1))
	case *selfcheck:
		err = selfCheck(*seed, *seconds, *layers)
	case *name == "":
		_, err = runSet(*seed, *seconds, *layers, *out)
	default:
		var res *runResult
		if res, err = runWorkload(*name, *seed, *seconds, *traced == 1); err == nil {
			if err = printResult(res); err == nil && !res.Correct {
				err = fmt.Errorf("%s: %d of %d operations failed", res.Workload, res.Failed, res.Attempted)
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// resultSet is one run of every workload: what -out writes and -compare reads.
type resultSet struct {
	Seed    int64        `json:"seed"`
	Seconds float64      `json:"seconds"`
	Runs    []*runResult `json:"runs"`
}

// runSet runs each workload in a fresh process (so peak RSS and the
// process-wide build memos are per workload) and gathers the detail
// records the children leave behind.
func runSet(seed int64, seconds float64, layers bool, out string) (*resultSet, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	set := &resultSet{Seed: seed, Seconds: seconds}
	failed := 0
	for _, w := range workloadDefs {
		for trace := 0; trace <= 1 && (trace == 0 || layers); trace++ {
			cmd := exec.Command(self, "-workload", w.Name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace))
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			os.Remove(detailPath(w.Name, trace)) // never read a previous run's record
			runErr := cmd.Run()
			data, err := os.ReadFile(detailPath(w.Name, trace))
			if err != nil {
				return nil, fmt.Errorf("%s: %v (%v)", w.Name, runErr, err)
			}
			var res runResult
			if err := json.Unmarshal(data, &res); err != nil {
				return nil, fmt.Errorf("%s: %w", w.Name, err)
			}
			set.Runs = append(set.Runs, &res)
			failed += res.Failed
		}
	}
	if out != "" {
		data, err := json.MarshalIndent(set, "", "  ")
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(out, data, 0o644); err != nil {
			return nil, err
		}
	}
	if failed > 0 {
		return set, fmt.Errorf("%d operations failed", failed)
	}
	return set, nil
}
