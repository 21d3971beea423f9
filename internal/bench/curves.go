package bench

import (
	"fmt"
	"strings"

	"multiscalar/internal/asm"
	"multiscalar/internal/core"
	"multiscalar/internal/job"
	"multiscalar/internal/workloads"
)

// SpeedupCurve is one benchmark's speedup-over-scalar series across unit
// counts — the figure-style view of Tables 3/4.
type SpeedupCurve struct {
	Name     string
	Units    []int
	Speedups []float64
}

// SpeedupCurves computes speedup-vs-units for every benchmark at one
// issue configuration. Every (workload, unit-count) point — plus each
// workload's scalar baseline — is an independent job on the worker pool.
func SpeedupCurves(width int, outOfOrder bool, scale Scale, units []int) ([]SpeedupCurve, error) {
	ws := workloads.All()
	stride := len(units) + 1 // job 0 of each workload is the scalar baseline
	results := make([]*core.Result, len(ws)*stride)
	err := job.RunJobs(len(results), func(i int) error {
		w, j := ws[i/stride], i%stride
		n := 1
		if j > 0 {
			n = units[j-1]
		}
		res, err := runOne(w, scale, n, width, outOfOrder)
		if err != nil {
			return fmt.Errorf("%s units=%d: %w", w.Name, n, err)
		}
		results[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	curves := make([]SpeedupCurve, 0, len(ws))
	for i, w := range ws {
		base := results[i*stride]
		c := SpeedupCurve{Name: w.Name, Units: units}
		for j := range units {
			c.Speedups = append(c.Speedups, float64(base.Cycles)/float64(results[i*stride+1+j].Cycles))
		}
		curves = append(curves, c)
	}
	return curves, nil
}

// FormatCurves renders the series as an ASCII chart: one row per
// benchmark per unit count, bars scaled to the chart width.
func FormatCurves(title string, curves []SpeedupCurve) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	maxSp := 1.0
	for _, c := range curves {
		for _, s := range c.Speedups {
			if s > maxSp {
				maxSp = s
			}
		}
	}
	const width = 50
	for _, c := range curves {
		fmt.Fprintf(&b, "%s\n", c.Name)
		for i, n := range c.Units {
			bar := int(c.Speedups[i] / maxSp * width)
			if bar < 1 {
				bar = 1
			}
			fmt.Fprintf(&b, "  %2d units |%-*s| %.2fx\n", n, width, strings.Repeat("#", bar), c.Speedups[i])
		}
	}
	return b.String()
}

// InstructionMix summarizes a workload's dynamic opcode-class mix — a
// sanity view of what each kernel actually executes.
type InstructionMix struct {
	Name                    string
	Total                   uint64
	Loads, Stores, Branches uint64
}

// Mixes computes the dynamic instruction mix of each multiscalar binary
// straight from the memoized oracle runs.
func Mixes(scale Scale) ([]InstructionMix, error) {
	ws := workloads.All()
	out := make([]InstructionMix, len(ws))
	err := job.RunJobs(len(ws), func(i int) error {
		w := ws[i]
		_, o, err := buildOracle(w, asm.ModeMultiscalar, scale)
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		out[i] = InstructionMix{
			Name:     w.Name,
			Total:    o.ICount,
			Loads:    o.Loads,
			Stores:   o.Stores,
			Branches: o.Branches,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// FormatMixes renders the dynamic instruction mix table.
func FormatMixes(rows []InstructionMix) string {
	var b strings.Builder
	b.WriteString("Dynamic instruction mix (multiscalar binaries)\n")
	fmt.Fprintf(&b, "%-10s %10s %8s %8s %9s\n", "program", "total", "loads", "stores", "branches")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %10d %7.1f%% %7.1f%% %8.1f%%\n", r.Name, r.Total,
			100*float64(r.Loads)/float64(r.Total),
			100*float64(r.Stores)/float64(r.Total),
			100*float64(r.Branches)/float64(r.Total))
	}
	return b.String()
}
