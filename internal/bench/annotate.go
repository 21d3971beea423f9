package bench

import (
	"fmt"
	"strings"

	"multiscalar/internal/annotate"
	"multiscalar/internal/asm"
	"multiscalar/internal/core"
	"multiscalar/internal/job"
	"multiscalar/internal/pu"
	"multiscalar/internal/workloads"
)

// AnnotateRow compares one workload's hand annotations against the
// flow-sensitive optimizer's tightened ones (internal/annotate) on the
// same machine: total cycles, values placed on the forwarding ring, and
// cycles units spent blocked on predecessor values. DroppedBits counts
// the create-mask registers the optimizer removed across tasks — each is
// one ring send fewer every time its task executes.
type AnnotateRow struct {
	Workload    string
	DroppedBits int
	HandCycles  uint64
	AutoCycles  uint64
	HandSends   uint64
	AutoSends   uint64
	HandWait    uint64 // wait-pred unit-cycles
	AutoWait    uint64
}

// AnnotateAblation runs the hand-vs-optimized comparison over the whole
// suite (extras included — the ABI-conservative function tasks the
// optimizer's refined return-liveness tightens live there) on 8 one-way
// in-order units. Each binary is verified against its own memoized
// functional oracle; the optimizer only rewrites annotations, never
// results, and a removed release decays to a nop so the committed
// instruction count is unchanged too.
func AnnotateAblation(scale Scale) ([]AnnotateRow, error) {
	ws := workloads.AllWithExtras()
	rows := make([]AnnotateRow, len(ws))
	err := job.RunJobs(len(ws), func(i int) error {
		w := ws[i]
		spec := pointSpec(w, asm.ModeMultiscalar, scale)
		p, err := spec.Resolve()
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		auto, plan := annotate.Optimize(p)
		cfg := core.DefaultConfig(8, 1, false)
		hand, err := runPoint(spec, cfg, "ablation run")
		if err != nil {
			return fmt.Errorf("%s (hand): %w", w.Name, err)
		}
		spec.Workload, spec.Program = "", auto
		opt, err := runPoint(spec, cfg, "ablation run")
		if err != nil {
			return fmt.Errorf("%s (optimized): %w", w.Name, err)
		}
		rows[i] = AnnotateRow{
			Workload:    w.Name,
			DroppedBits: plan.DroppedSends(),
			HandCycles:  hand.Cycles,
			AutoCycles:  opt.Cycles,
			HandSends:   hand.RingSends,
			AutoSends:   opt.RingSends,
			HandWait:    hand.Activity[pu.ActWaitPred],
			AutoWait:    opt.Activity[pu.ActWaitPred],
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// FormatAnnotate renders the hand-vs-optimized table.
func FormatAnnotate(rows []AnnotateRow) string {
	var b strings.Builder
	b.WriteString("Annotation optimizer: hand vs auto-tightened (8 units, 1-way in-order)\n")
	fmt.Fprintf(&b, "  %-10s %5s  %21s  %19s  %21s\n",
		"workload", "drop", "ring sends (hand/auto)", "cycles (hand/auto)", "wait-pred (hand/auto)")
	for _, r := range rows {
		mark := ""
		if r.AutoSends < r.HandSends {
			mark = fmt.Sprintf("  -%.0f%% sends", 100*float64(r.HandSends-r.AutoSends)/float64(r.HandSends))
		}
		fmt.Fprintf(&b, "  %-10s %5d  %10d /%10d  %9d /%9d  %10d /%10d%s\n",
			r.Workload, r.DroppedBits,
			r.HandSends, r.AutoSends,
			r.HandCycles, r.AutoCycles,
			r.HandWait, r.AutoWait, mark)
	}
	return b.String()
}
