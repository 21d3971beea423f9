// Package bench regenerates the paper's evaluation: Table 2 (dynamic
// instruction counts), Table 3 (in-order units) and Table 4 (out-of-order
// units), the Section 3 cycle-distribution breakdown, and the ablation
// studies over the design choices DESIGN.md calls out. It is shared by
// the msbench command and the repository's testing.B benchmarks.
package bench

import (
	"fmt"
	"strings"

	"multiscalar/internal/asm"
	"multiscalar/internal/core"
	"multiscalar/internal/isa"
	"multiscalar/internal/job"
	"multiscalar/internal/pu"
	"multiscalar/internal/workloads"
)

// Scale chooses the problem size: 0 uses each workload's default (the
// full benchmark runs), negative uses its fast test scale.
type Scale int

func (s Scale) of(w *workloads.Workload) int {
	switch {
	case s > 0:
		return int(s)
	case s < 0:
		return w.TestScale
	default:
		return w.DefaultScale
	}
}

// Table2Row is one benchmark's dynamic instruction counts.
type Table2Row struct {
	Name          string
	Scalar, Multi uint64
	PctIncrease   float64
	PaperPct      float64
}

// Table2 measures scalar vs multiscalar dynamic instruction counts.
func Table2(scale Scale) ([]Table2Row, error) {
	ws := workloads.All()
	rows := make([]Table2Row, len(ws))
	err := job.RunJobs(len(ws), func(i int) error {
		w := ws[i]
		_, so, err := buildOracle(w, asm.ModeScalar, scale)
		if err != nil {
			return fmt.Errorf("%s scalar: %w", w.Name, err)
		}
		_, mo, err := buildOracle(w, asm.ModeMultiscalar, scale)
		if err != nil {
			return fmt.Errorf("%s multiscalar: %w", w.Name, err)
		}
		if so.Out != mo.Out {
			return fmt.Errorf("%s: builds disagree on output", w.Name)
		}
		rows[i] = Table2Row{
			Name:        w.Name,
			Scalar:      so.ICount,
			Multi:       mo.ICount,
			PctIncrease: 100 * (float64(mo.ICount) - float64(so.ICount)) / float64(so.ICount),
			PaperPct:    w.Paper.PctIncrease,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// PerfRow is one benchmark's row of Table 3 or Table 4 for one issue
// width: scalar IPC, 4/8-unit speedups and prediction accuracies, next to
// the paper's numbers.
type PerfRow struct {
	Name      string
	ScalarIPC float64
	Speedup4  float64
	Pred4     float64 // percent
	Speedup8  float64
	Pred8     float64
	Paper     workloads.PaperPerf

	ScalarCycles, Cycles4, Cycles8 uint64
	Detail4, Detail8               *core.Result
}

// runOne simulates one workload at one configuration, verifying against
// the (memoized) oracle.
func runOne(w *workloads.Workload, scale Scale, units, width int, ooo bool) (*core.Result, error) {
	cfg, mode := job.Machine(units, width, ooo)
	return runPoint(pointSpec(w, mode, scale), cfg,
		fmt.Sprintf("%s units=%d width=%d ooo=%v", w.Name, units, width, ooo))
}

// PerfTable computes Table 3 (outOfOrder=false) or Table 4 (true) for one
// issue width. The three configurations of every workload are independent
// simulations and fan out over the worker pool as one flat job list.
func PerfTable(width int, outOfOrder bool, scale Scale) ([]PerfRow, error) {
	ws := workloads.All()
	unitCounts := []int{1, 4, 8}
	results := make([]*core.Result, len(ws)*len(unitCounts))
	err := job.RunJobs(len(results), func(i int) error {
		res, err := runOne(ws[i/len(unitCounts)], scale, unitCounts[i%len(unitCounts)], width, outOfOrder)
		results[i] = res
		return err
	})
	if err != nil {
		return nil, err
	}
	rows := make([]PerfRow, 0, len(ws))
	for i, w := range ws {
		srow, r4, r8 := results[3*i], results[3*i+1], results[3*i+2]
		paper := w.Paper.InOrder1
		switch {
		case !outOfOrder && width == 2:
			paper = w.Paper.InOrder2
		case outOfOrder && width == 1:
			paper = w.Paper.OOO1
		case outOfOrder && width == 2:
			paper = w.Paper.OOO2
		}
		rows = append(rows, PerfRow{
			Name:         w.Name,
			ScalarIPC:    srow.IPC(),
			Speedup4:     float64(srow.Cycles) / float64(r4.Cycles),
			Pred4:        100 * r4.PredAccuracy(),
			Speedup8:     float64(srow.Cycles) / float64(r8.Cycles),
			Pred8:        100 * r8.PredAccuracy(),
			Paper:        paper,
			ScalarCycles: srow.Cycles,
			Cycles4:      r4.Cycles,
			Cycles8:      r8.Cycles,
			Detail4:      r4,
			Detail8:      r8,
		})
	}
	return rows, nil
}

// FormatTable1 renders Table 1, the functional unit latencies, from the
// configuration. The memory rows are the paper's numbers, printed only:
// a load or store completes at its data cache access (DESIGN.md §1).
func FormatTable1() string {
	const memStore, memLoad = 1, 2
	l := isa.Table1()
	var b strings.Builder
	b.WriteString("Table 1: functional unit latencies (cycles)\n")
	fmt.Fprintf(&b, "  %-12s %2d    %-14s %2d\n", "Add/Sub", l.IntAddSub, "SP Add/Sub", l.SPAddSub)
	fmt.Fprintf(&b, "  %-12s %2d    %-14s %2d\n", "Shift/Logic", l.ShiftLogic, "SP Multiply", l.SPMul)
	fmt.Fprintf(&b, "  %-12s %2d    %-14s %2d\n", "Multiply", l.IntMul, "SP Divide", l.SPDiv)
	fmt.Fprintf(&b, "  %-12s %2d    %-14s %2d\n", "Divide", l.IntDiv, "DP Add/Sub", l.DPAddSub)
	fmt.Fprintf(&b, "  %-12s %2d    %-14s %2d\n", "Mem Store", memStore, "DP Multiply", l.DPMul)
	fmt.Fprintf(&b, "  %-12s %2d    %-14s %2d\n", "Mem Load", memLoad, "DP Divide", l.DPDiv)
	fmt.Fprintf(&b, "  %-12s %2d\n", "Branch", l.Branch)
	return b.String()
}

// FormatTable2 renders Table 2 next to the paper's percentages.
func FormatTable2(rows []Table2Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2: dynamic instruction counts (scalar vs multiscalar binary)\n")
	fmt.Fprintf(&b, "%-10s %12s %12s %10s %12s\n", "program", "scalar", "multiscalar", "increase", "paper incr.")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %12d %12d %9.1f%% %11.1f%%\n",
			r.Name, r.Scalar, r.Multi, r.PctIncrease, r.PaperPct)
	}
	return b.String()
}

// FormatPerfTable renders Table 3 or 4 next to the paper's numbers.
func FormatPerfTable(title string, rows []PerfRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-10s | %6s %7s %6s %7s %6s | paper: %5s %5s %5s\n",
		"program", "IPC", "spd4", "pred4", "spd8", "pred8", "IPC", "spd4", "spd8")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s | %6.2f %7.2f %5.1f%% %7.2f %5.1f%% | %12.2f %5.2f %5.2f\n",
			r.Name, r.ScalarIPC, r.Speedup4, r.Pred4, r.Speedup8, r.Pred8,
			r.Paper.ScalarIPC, r.Paper.Speedup4, r.Paper.Speedup8)
	}
	return b.String()
}

// BreakdownRow is the Section 3 cycle-distribution of one benchmark at
// one configuration: how the unit-cycles were spent.
type BreakdownRow struct {
	Name       string
	Units      int
	Compute    float64 // fractions of all unit-cycles
	WaitPred   float64
	WaitIntra  float64
	WaitRetire float64
	Idle       float64
	Squashed   float64 // non-useful computation (Section 3.1)
}

// Breakdown computes the cycle distribution at `units` 1-way in-order.
func Breakdown(units int, scale Scale) ([]BreakdownRow, error) {
	ws := workloads.All()
	rows := make([]BreakdownRow, len(ws))
	err := job.RunJobs(len(ws), func(i int) error {
		res, err := runOne(ws[i], scale, units, 1, false)
		if err != nil {
			return err
		}
		total := float64(res.Cycles) * float64(units)
		rows[i] = BreakdownRow{
			Name:       ws[i].Name,
			Units:      units,
			Compute:    float64(res.Activity[pu.ActCompute]) / total,
			WaitPred:   float64(res.Activity[pu.ActWaitPred]) / total,
			WaitIntra:  float64(res.Activity[pu.ActWaitIntra]) / total,
			WaitRetire: float64(res.Activity[pu.ActWaitRetire]) / total,
			Idle:       float64(res.Activity[pu.ActIdle]) / total,
			Squashed:   float64(res.SquashedCycles) / total,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// FormatBreakdown renders the Section 3 accounting.
func FormatBreakdown(rows []BreakdownRow) string {
	var b strings.Builder
	if len(rows) > 0 {
		fmt.Fprintf(&b, "Cycle distribution (Section 3), %d units, 1-way in-order\n", rows[0].Units)
	}
	fmt.Fprintf(&b, "%-10s %8s %9s %10s %11s %6s %9s\n",
		"program", "compute", "wait-pred", "wait-intra", "wait-retire", "idle", "squashed")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %7.1f%% %8.1f%% %9.1f%% %10.1f%% %5.1f%% %8.1f%%\n",
			r.Name, 100*r.Compute, 100*r.WaitPred, 100*r.WaitIntra,
			100*r.WaitRetire, 100*r.Idle, 100*r.Squashed)
	}
	return b.String()
}
