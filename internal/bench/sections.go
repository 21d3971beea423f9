package bench

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
	"time"

	"multiscalar/internal/job"
)

// Options is what a section reads from msbench's flags.
type Options struct {
	Scale      Scale
	SampleGate float64 // sampled: fail unless GateSampled passes at this reduction (0 = no gate)
}

// A block is one independent part of a section's output.
type block func(o Options) (string, error)

// section is one row of the registry: a named part of msbench's output,
// its blocks printed in order, each followed by a blank line.
type section struct {
	name   string
	all    bool // part of msbench -all
	blocks []block
}

// sections is the single registry of msbench sections, in display order.
// The -sections flag help, its error message, -all, and what runs all
// derive from it, so adding a row here is the only edit needed to make a
// section addressable. sampled is deliberately not part of -all: its
// runs are estimates, never inputs to the paper tables.
var sections = []section{
	{"table1", true, []block{func(Options) (string, error) { return FormatTable1(), nil }}},
	{"table2", true, []block{func(o Options) (string, error) {
		rows, err := Table2(o.Scale)
		return FormatTable2(rows), err
	}}},
	{"table3", true, []block{perfTable(1, false), perfTable(2, false)}},
	{"table4", true, []block{perfTable(1, true), perfTable(2, true)}},
	{"breakdown", true, []block{func(o Options) (string, error) {
		rows, err := Breakdown(8, o.Scale)
		return FormatBreakdown(rows), err
	}}},
	{"ablate", true, []block{
		ablation("unit count (example)", func(s Scale) ([]AblationRow, error) { return UnitSweep("example", s, []int{1, 2, 4, 8, 16}) }),
		ablation("ring hop latency (compress, 8 units)", func(s Scale) ([]AblationRow, error) { return RingLatencySweep("compress", s, []int{0, 1, 2, 4, 8}) }),
		ablation("ARB capacity and overflow policy (tomcatv, 8 units)", func(s Scale) ([]AblationRow, error) { return ARBSweep("tomcatv", s, []int{2, 8, 256}) }),
		ablation("early forwarding vs completion flush (wc, 8 units)", func(s Scale) ([]AblationRow, error) { return ForwardingAblation("wc", s) }),
		ablation("PAs vs static task prediction (gcc, 8 units)", func(s Scale) ([]AblationRow, error) { return PredictorAblation("gcc", s) }),
		ablation("private vs shared FP/complex units (tomcatv, 8 units)", func(s Scale) ([]AblationRow, error) { return SharedFUAblation("tomcatv", s) }),
	}},
	{"sweep", true, []block{func(o Options) (string, error) {
		curves, err := SpeedupCurves(1, false, o.Scale, []int{2, 4, 8, 16})
		return FormatCurves("Speedup vs unit count (1-way in-order units)", curves), err
	}}},
	{"mix", true, []block{func(o Options) (string, error) {
		rows, err := Mixes(o.Scale)
		return FormatMixes(rows), err
	}}},
	{"sampled", false, []block{func(o Options) (string, error) {
		rows, err := RunSampled(o.Scale)
		if err == nil && o.SampleGate > 0 {
			if fails := GateSampled(rows, o.SampleGate); len(fails) > 0 {
				err = errors.New("sampled-simulation gate failed:\n  " + strings.Join(fails, "\n  "))
			}
		}
		return FormatSampled(rows), err
	}}},
}

// perfTable is one issue width of Table 3 (in-order) or Table 4.
func perfTable(width int, ooo bool) block {
	title := fmt.Sprintf("Table 3: in-order %d-way issue units", width)
	if ooo {
		title = fmt.Sprintf("Table 4: out-of-order %d-way issue units", width)
	}
	return func(o Options) (string, error) {
		rows, err := PerfTable(width, ooo, o.Scale)
		return FormatPerfTable(title, rows), err
	}
}

func ablation(title string, run func(Scale) ([]AblationRow, error)) block {
	return func(o Options) (string, error) {
		rows, err := run(o.Scale)
		return FormatAblation("Ablation: "+title, rows), err
	}
}

// RunSections runs the blocks of the selected sections as one fan-out
// over the worker budget and writes them to w in registry order. It
// returns one Section per selected section whose Seconds run from the
// previous section's output being ready (every block up to its last
// done) to this one's, so they sum to the wall time of the fan-out even
// though sections overlap, and the lowest-index error.
func RunSections(sel map[string]bool, o Options, w io.Writer) ([]Section, error) {
	var rows []section
	for _, s := range sections {
		if sel[s.name] {
			rows = append(rows, s)
		}
	}
	return runSections(rows, o, w)
}

func runSections(rows []section, o Options, w io.Writer) ([]Section, error) {
	var blocks []block
	for _, s := range rows {
		blocks = append(blocks, s.blocks...)
	}
	text := make([]string, len(blocks))
	done := make([]time.Time, len(blocks))
	start := time.Now()
	err := job.RunJobs(len(blocks), func(j int) (err error) {
		defer func() { done[j] = time.Now() }()
		text[j], err = blocks[j](o)
		return err
	})
	times := make([]Section, len(rows))
	ready, j := start, 0
	for r, s := range rows {
		last := ready
		for range s.blocks {
			if done[j].After(ready) {
				ready = done[j]
			}
			if _, werr := fmt.Fprintln(w, text[j]); err == nil {
				err = werr
			}
			j++
		}
		times[r] = Section{Name: s.name, Seconds: ready.Sub(last).Seconds()}
	}
	return times, err
}

// SectionNames returns the valid -sections names in display order.
func SectionNames() []string {
	out := make([]string, len(sections))
	for i, s := range sections {
		out[i] = s.name
	}
	return out
}

// AllSections returns the names msbench -all selects.
func AllSections() []string {
	var out []string
	for _, s := range sections {
		if s.all {
			out = append(out, s.name)
		}
	}
	return out
}

// ParseSections parses a comma-separated -sections value into a
// selection set. Unknown names are an error that lists every valid name
// (and suggests the closest one for likely typos) instead of silently
// selecting nothing. An empty value yields an empty, non-nil set.
func ParseSections(s string) (map[string]bool, error) {
	names := SectionNames()
	sel := make(map[string]bool)
	for _, name := range strings.Split(s, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if !slices.Contains(names, name) {
			msg := fmt.Sprintf("unknown section %q (valid: %s)", name, strings.Join(names, ","))
			if hint := closestSection(name); hint != "" {
				msg += fmt.Sprintf("; did you mean %q?", hint)
			}
			return nil, fmt.Errorf("%s", msg)
		}
		sel[name] = true
	}
	return sel, nil
}

// closestSection returns the registered name with the smallest edit
// distance from s, or "" when nothing is close enough to be a plausible
// typo.
func closestSection(s string) string {
	s = strings.ToLower(s)
	best, bestDist := "", 3 // distance >= 3 is not a typo, it's a different word
	names := SectionNames()
	sort.Strings(names) // deterministic tie-break independent of display order
	for _, n := range names {
		if d := editDistance(s, n); d < bestDist {
			best, bestDist = n, d
		}
	}
	return best
}

func editDistance(a, b string) int {
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min(prev[j]+1, min(cur[j-1]+1, prev[j-1]+cost))
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}
