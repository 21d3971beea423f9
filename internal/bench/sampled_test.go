package bench

import (
	"strings"
	"testing"
)

func TestGateSampled(t *testing.T) {
	rows := []SampledRow{
		{Name: "good", InCI: true, Reduction: 14.2},
		{Name: "biased", InCI: false, Reduction: 20.0, ErrPct: 7.5},
		{Name: "slow", InCI: true, Reduction: 3.1},
	}
	fails := GateSampled(rows, 10)
	if len(fails) != 2 {
		t.Fatalf("got %d failures, want 2: %v", len(fails), fails)
	}
	joined := strings.Join(fails, "\n")
	for _, name := range []string{"biased", "slow"} {
		if !strings.Contains(joined, name) {
			t.Errorf("failure list does not mention %q: %v", name, fails)
		}
	}
	if strings.Contains(joined, "good") {
		t.Errorf("passing row flagged: %v", fails)
	}
	if got := GateSampled(rows[:1], 10); len(got) != 0 {
		t.Errorf("clean rows produced failures: %v", got)
	}
}

// TestRunSampledQuick runs the sampled section the way msbench -sections
// sampled -quick does: every estimate sampled (not the full-detail
// fallback) from at least two windows, its 95% CI covering the exact run,
// and every row rendered.
func TestRunSampledQuick(t *testing.T) {
	runs, windows, _ := SampledTotals()
	rows, err := RunSampled(-1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(sampledWorkloads) {
		t.Fatalf("%d rows for %d workloads", len(rows), len(sampledWorkloads))
	}
	out := FormatSampled(rows)
	for _, r := range rows {
		if !r.InCI || r.FullDetail || r.Windows < 2 {
			t.Errorf("%s: exact %d cycles, estimate [%d, %d] from %d windows (full detail %v)",
				r.Name, r.FullCycles, r.CyclesLow, r.CyclesHi, r.Windows, r.FullDetail)
		}
		if !strings.Contains(out, "  "+r.Name+" ") {
			t.Errorf("%s missing from\n%s", r.Name, out)
		}
		windows += uint64(r.Windows)
	}
	if gotRuns, gotWindows, _ := SampledTotals(); gotRuns != runs+uint64(len(rows)) || gotWindows != windows {
		t.Errorf("totals %d runs / %d windows, want %d / %d", gotRuns, gotWindows, runs+uint64(len(rows)), windows)
	}
}
