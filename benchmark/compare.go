package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// exactLayer names the per-layer metrics that are counts made by the
// program (or ratios of such counts): two runs of one build must report
// them identically, whatever the host is doing.
var exactLayer = map[string]bool{}

func init() {
	for _, n := range []string{
		"core.skip_ratio_wide", "core.skip_ratio_narrow",
		"core.committed", "core.tasks_retired", "core.tasks_squashed", "core.ctl_squashes", "core.mem_squashes", "core.ring_sends",
		"core.act_compute_pct", "core.act_wait_pred_pct", "core.act_wait_intra_pct", "core.act_wait_retire_pct", "core.act_idle_pct", "core.squashed_pct",
		"arb.allocs", "arb.overflows", "arb.violations", "arb.store_forwards", "arb.peak_occupancy",
		"mem.icache_misses", "mem.dcache_misses", "mem.bank_conflicts", "mem.bus_requests",
		"predict.task_accuracy", "snapshot.bytes", "trace.bytes_per_kcycle",
		"sample.windows", "sample.detailed_cycles", "sample.detail_reduction", "sample.ci_halfwidth_pct", "sample.est_err_pct",
		"bench.builds", "bench.sim_runs", "bench.runs_restored", "bench.skip_ratio",
		"serve.executed", "serve.spilled",
	} {
		exactLayer[n] = true
	}
}

// verdict judges one end-to-end metric of set B against set A.
//
//	ok          B's median is no worse than A's by more than the bound
//	REGRESSED   it is worse by more than the bound
//	unresolved  the quartiles over passes are wider than the bound in
//	            either set, so the two medians cannot be told apart
//	DIFFERENT   an exact metric changed at all
func verdict(d metricDef, a, b metricValue) (string, float64) {
	worse := worsening(d.Better, a.Value, b.Value)
	if d.Bound == 0 {
		if a.Value != b.Value {
			return "DIFFERENT", worse
		}
		return "ok", worse
	}
	for _, v := range []metricValue{a, b} {
		if v.N > 0 && v.Value != 0 && (v.Q3-v.Q1)/v.Value > d.Bound {
			return "unresolved", worse
		}
	}
	if worse > d.Bound {
		return "REGRESSED", worse
	}
	return "ok", worse
}

// worsening is how much worse b is than a, as a share of a.
func worsening(better string, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

func loadSet(path string) (*resultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set resultSet
	if err := json.Unmarshal(data, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &set, nil
}

func compareFiles(pathA, pathB string) error {
	a, err := loadSet(pathA)
	if err != nil {
		return err
	}
	b, err := loadSet(pathB)
	if err != nil {
		return err
	}
	return compareSets(a, b)
}

// compareSets prints one row per (workload, metric) and returns an error
// when a bounded metric regressed, an exact one changed, or an operation
// failed. Per-layer rows have no bound: they are printed with their
// change, and only the exact ones can fail the comparison.
func compareSets(a, b *resultSet) error {
	find := func(s *resultSet, workload string, trace int) *runResult {
		for _, r := range s.Runs {
			if r.Workload == workload && r.Trace == trace {
				return r
			}
		}
		return nil
	}
	bad := 0
	fmt.Printf("%-13s %-28s %14s %14s %8s %6s  %s\n", "workload", "metric", "A", "B", "worse%", "bound%", "verdict")
	for _, w := range workloadDefs {
		for trace, table := range [][]metricDef{endToEnd, perLayer} {
			ra, rb := find(a, w.Name, trace), find(b, w.Name, trace)
			if ra == nil || rb == nil {
				continue
			}
			if ra.Failed+rb.Failed > 0 {
				fmt.Printf("%-13s failed operations: A %d, B %d\n", w.Name, ra.Failed, rb.Failed)
				bad++
			}
			for _, d := range table {
				va, vb := ra.Metrics[d.Name], rb.Metrics[d.Name]
				v, bound := "", "-"
				var worse float64
				switch {
				case trace == 0:
					v, worse = verdict(d, va, vb)
					bound = fmt.Sprintf("%.0f", 100*d.Bound)
				case exactLayer[d.Name]:
					v, worse = verdict(metricDef{Better: d.Better}, va, vb)
					bound = "0"
				case va.Value == 0 && vb.Value == 0:
					continue // not measured by this workload's traced run
				default:
					worse = worsening(d.Better, va.Value, vb.Value)
				}
				if v == "REGRESSED" || v == "DIFFERENT" {
					bad++
				}
				fmt.Printf("%-13s %-28s %14.6g %14.6g %+8.2f %6s  %s\n", w.Name, d.Name, va.Value, vb.Value, 100*worse, bound, v)
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d rows regressed, differ or failed", bad)
	}
	return nil
}

// selfCheck runs two full sets of this build and compares them: every
// bounded median within its bound, every exact metric identical, no
// failed operation.
func selfCheck(seed int64, seconds float64, layers bool) error {
	var sets [2]*resultSet
	for i := range sets {
		s, err := runSet(seed, seconds, layers, filepath.Join(outDir, fmt.Sprintf("selfcheck-%d.json", i)))
		if err != nil {
			return err
		}
		sets[i] = s
	}
	return compareSets(sets[0], sets[1])
}
