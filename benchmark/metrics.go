package main

import (
	"encoding/json"
	"fmt"
)

// metricDef declares one metric: BENCHMARK.json is generated from these
// tables (-describe) and a test holds the two together.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // end-to-end only: allowed worsening as a share of the parent's median
}

// workloadDef names a workload and records why it exists.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloadDefs = []workloadDef{
	{"tables_exact", "cold msbench -all child processes checked against msbench_all.txt: the only workload where the bench pool, build/oracle memo and snapshot run sharing work"},
	{"exact_wide", "exact 8- and 16-unit out-of-order runs through job.Execute: core/pu/arb/mem/predict do all the work, no cache, sampler or server involved"},
	{"exact_narrow", "scalar and 1-unit runs with long stalls: the same timing layers on the path where the wakeup scheduler skips 20-65% of cycles"},
	{"sampled_long", "sampled estimates of two long runs in wall-clock: interp, snapshot and sample dominate, the detailed kernel is a small share"},
	{"serve_mix", "closed-loop HTTP load from 2 clients on a fresh msserve engine: a cold Zipf phase (misses, coalescing, evictions, spills) then a hot phase answered from memory or spill"},
}

// endToEnd is what a user of the system sees. Every workload reports
// every one (the driver's contract), so on the four batch workloads,
// which have no cache-hit path, the four serve-shaped metrics read the
// same pass as a mean job rate and latency — see README.md. The bounds
// are wide because the reference VM is noisy: ten runs of one build
// spread by 3-4% when the host is quiet and by 15-18% when it is not.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"sim_mcps", "Mcycles/s", "higher", 0.25},
	{"sim_mips", "Minstr/s", "higher", 0.25},
	{"sim_cycles", "cycles", "lower", 0},
	{"peak_rss_mb", "MB", "lower", 0.20},
	{"cold_jobs_per_s", "1/s", "higher", 0.25},
	{"hot_jobs_per_s", "1/s", "higher", 0.25},
	{"hot_p50_us", "us", "lower", 0.25},
	{"hot_artifact_p50_ms", "ms", "lower", 0.25},
}

func defs(unit, better string, names ...string) []metricDef {
	out := make([]metricDef, len(names))
	for i, n := range names {
		out[i] = metricDef{Name: n, Unit: unit, Better: better}
	}
	return out
}

// perLayer is what the traced run reports, layer by layer. A workload's
// traced run fills the metrics its passes and its home probes measure
// and reports the rest as 0 (the comment at the top of probes.go says
// which probe lives where).
var perLayer = concat(
	defs("ms", "lower", "asm.assemble_ms"),
	defs("KB/s", "higher", "asm.kb_per_s"),

	defs("Minstr/s", "higher", "interp.mips", "interp.warm_mips"),
	defs("ms", "lower", "interp.oracle_ms"),

	defs("kcycles/s", "higher", "core.ms4_kcps", "core.ms8_kcps", "core.ms16_kcps", "core.ms1_kcps", "core.scalar_kcps"),
	defs("ns", "lower", "core.ns_per_unit_tick"),
	defs("ratio", "higher", "core.skip_ratio_wide", "core.skip_ratio_narrow"),
	defs("x", "higher", "core.noskip_slowdown"),
	defs("count", "lower", "core.mallocs_per_kcycle",
		"core.committed", "core.tasks_retired", "core.tasks_squashed", "core.ctl_squashes", "core.mem_squashes", "core.ring_sends"),
	defs("%", "higher", "core.act_compute_pct"),
	defs("%", "lower", "core.act_wait_pred_pct", "core.act_wait_intra_pct", "core.act_wait_retire_pct", "core.act_idle_pct", "core.squashed_pct"),

	defs("1/s", "higher", "arb.ops_per_s"),
	defs("count", "lower", "arb.allocs", "arb.overflows", "arb.violations", "arb.store_forwards", "arb.peak_occupancy"),

	defs("1/s", "higher", "mem.dcache_access_per_s", "mem.read_word_per_s"),
	defs("count", "lower", "mem.icache_misses", "mem.dcache_misses", "mem.bank_conflicts", "mem.bus_requests"),

	defs("1/s", "higher", "predict.task_ops_per_s"),
	defs("%", "higher", "predict.task_accuracy"),

	defs("us", "lower", "snapshot.save_us", "snapshot.restore_us"),
	defs("B", "lower", "snapshot.bytes"),
	defs("ms", "lower", "snapshot.restored_run_ms"),

	defs("x", "lower", "trace.on_slowdown"),
	defs("1/s", "higher", "trace.events_per_s"),
	defs("B", "lower", "trace.bytes_per_kcycle"),

	defs("us", "lower", "job.key_us", "job.key_source_us", "job.key_program_us", "job.resolve_hit_us"),

	defs("ms", "lower", "sample.run_ms.example", "sample.run_ms.wc"),
	defs("count", "lower", "sample.windows"),
	defs("cycles", "lower", "sample.detailed_cycles"),
	defs("x", "higher", "sample.detail_reduction", "sample.wall_speedup"),
	defs("s", "lower", "sample.exact_ref_s"),
	defs("%", "lower", "sample.ci_halfwidth_pct", "sample.est_err_pct"),
	defs("ratio", "lower", "sample.functional_share"),

	defs("s", "lower", "bench.section_s.table2", "bench.section_s.table3", "bench.section_s.table4",
		"bench.section_s.breakdown", "bench.section_s.ablate", "bench.section_s.sweep", "bench.section_s.mix"),
	defs("count", "lower", "bench.builds", "bench.sim_runs"),
	defs("count", "higher", "bench.runs_restored"),
	defs("ratio", "higher", "bench.skip_ratio"),
	defs("x", "higher", "bench.pool_speedup"),

	defs("us", "lower", "serve.submit_hit_us", "serve.decode_us", "serve.encode_us", "serve.encode_artifact_us",
		"serve.http_overhead_us", "serve.spill_load_us", "serve.hot_p99_us", "serve.hot_p999_us"),
	defs("ms", "lower", "serve.cold_miss_p50_ms", "serve.cold_miss_p90_ms"),
	defs("count", "lower", "serve.executed", "serve.evictions", "serve.spilled", "serve.queue_depth_max"),
	defs("count", "higher", "serve.cache_hits", "serve.disk_hits"),
	defs("ratio", "higher", "serve.hit_rate_cold"),

	defs("%", "lower", "hostshare.pu", "hostshare.core", "hostshare.arb", "hostshare.mem", "hostshare.predict",
		"hostshare.interp", "hostshare.snapshot", "hostshare.serve", "hostshare.json_http", "hostshare.runtime", "hostshare.other"),

	defs("s", "lower", "span.build_self_s", "span.oracle_self_s", "span.execute_self_s", "span.sample_run_self_s"),
	defs("us", "lower", "span.http_roundtrip_self_us", "span.http_handler_self_us", "span.serve_submit_self_us"),
	defs("%", "higher", "span.self_sum_pct"),
	defs("%", "lower", "trace_overhead_pct"),
)

func concat(groups ...[]metricDef) []metricDef {
	var out []metricDef
	for _, g := range groups {
		out = append(out, g...)
	}
	return out
}

const defaultRunSeconds = 10

// describe renders BENCHMARK.json from the tables above.
func describe() ([]byte, error) {
	type layer struct { // a per-layer entry has no bound key
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []layer       `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: defaultRunSeconds,
		Workloads:  workloadDefs,
		EndToEnd:   endToEnd,
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("encoding BENCHMARK.json: %w", err)
	}
	return append(out, '\n'), nil
}
