package litmus

import (
	"fmt"
	"strings"
	"sync"

	"multiscalar/internal/arb"
	"multiscalar/internal/job"
	"multiscalar/internal/trace"
)

// StressOpts configure a randomized ARB-capacity stress run.
type StressOpts struct {
	Seed     int64
	Programs int // generated programs (seeds Seed, Seed+1, ...); default 100
}

// The stressor's config grid: units × ARB entries per bank (tiny: the
// point of the stressor) × overflow policies.
var (
	stressUnits    = [...]int{4, 8}
	stressEntries  = [...]int{1, 2}
	stressPolicies = [...]arb.OverflowPolicy{arb.PolicyStall, arb.PolicySquash}
)

// maxHistBanks bounds the per-bank aggregation (2× the largest unit
// count the stressor runs).
const maxHistBanks = 16

// maxHistDist bounds the squash-distance histogram (distances are
// < NumUnits ≤ 8).
const maxHistDist = 16

// StressReport is the stressor's aggregate outcome.
type StressReport struct {
	Seed     int64
	Programs int
	Runs     int

	Mismatches []*Mismatch

	// Aggregate ARB counters, overall and per bank index (summed over
	// runs; MaxOccupancy is the peak over runs).
	Allocs, Overflows, Violations, StoreForwards uint64
	MaxOccupancy                                 int
	Banks                                        [maxHistBanks]arb.BankStats

	// Squash-event histograms from the trace stream.
	SquashDist  [maxHistDist]uint64
	CauseCounts [4]uint64 // indexed by trace.Cause*
}

// squashSink accumulates squash-distance and cause histograms; every
// other event kind is dropped on the floor.
type squashSink struct {
	dist  [maxHistDist]uint64
	cause [4]uint64
}

func (s *squashSink) Emit(e trace.Event) {
	if e.Kind != trace.KTaskSquash {
		return
	}
	if d := trace.SquashDist(e.Arg2); d < maxHistDist {
		s.dist[d]++
	}
	if e.Arg < uint32(len(s.cause)) {
		s.cause[e.Arg]++
	}
}

// Stress generates opts.Programs random litmus programs and runs each
// across the units × entries × policies grid on directly constructed
// machines (the stats surface needs the machine, not just the Result),
// judging every run in lockstep with the functional machine and folding
// the per-bank ARB counters and squash histograms into the report.
func Stress(opts StressOpts) (*StressReport, error) {
	if opts.Programs <= 0 {
		opts.Programs = 100
	}
	rep := &StressReport{Seed: opts.Seed, Programs: opts.Programs}
	var mu sync.Mutex
	var genErr error

	err := job.RunJobs(opts.Programs, func(i int) error {
		p, err := Random(opts.Seed + int64(i))
		if err != nil {
			mu.Lock()
			if genErr == nil {
				genErr = err
			}
			mu.Unlock()
			return err
		}
		for _, units := range stressUnits {
			for _, entries := range stressEntries {
				for _, pol := range stressPolicies {
					e := MatrixEntry{Units: units, Policy: pol, Entries: entries}
					stressOne(p, e, opts.Seed, rep, &mu)
				}
			}
		}
		return nil
	})
	if genErr != nil {
		return nil, genErr
	}
	if err != nil {
		return nil, err
	}
	return rep, nil
}

// stressOne runs one cell and folds its mismatch, ARB counters and
// squash histograms into rep under mu.
func stressOne(p *Program, e MatrixEntry, seed int64, rep *StressReport, mu *sync.Mutex) {
	sink := &squashSink{}
	cfg := e.Config()
	cfg.Sink = sink
	m, _, mm := runCell(p, p.Prog, e, cfg, seed)
	mu.Lock()
	defer mu.Unlock()
	rep.Runs++
	if mm != nil {
		rep.Mismatches = append(rep.Mismatches, mm)
	}
	if m == nil {
		return
	}

	st := m.ARBStats()
	rep.Allocs += st.Allocs
	rep.Overflows += st.Overflows
	rep.Violations += st.Violations
	rep.StoreForwards += st.StoreForwards
	rep.MaxOccupancy = max(rep.MaxOccupancy, st.MaxOccupancy)
	for i, b := range st.Banks[:min(len(st.Banks), maxHistBanks)] {
		r := &rep.Banks[i]
		r.Allocs += b.Allocs
		r.Overflows += b.Overflows
		r.Violations += b.Violations
		r.MaxOccupancy = max(r.MaxOccupancy, b.MaxOccupancy)
	}
	for i, n := range sink.dist {
		rep.SquashDist[i] += n
	}
	for i, n := range sink.cause {
		rep.CauseCounts[i] += n
	}
}

// String renders the report as the stressor's text summary.
func (r *StressReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "stress: seed=%d programs=%d runs=%d mismatches=%d\n",
		r.Seed, r.Programs, r.Runs, len(r.Mismatches))
	fmt.Fprintf(&b, "arb:    %d allocs, %d overflows, %d violations, %d store-forwards, peak occupancy %d\n",
		r.Allocs, r.Overflows, r.Violations, r.StoreForwards, r.MaxOccupancy)
	b.WriteString("bank     allocs  overflows violations maxocc\n")
	for i, bk := range r.Banks {
		if bk.Allocs == 0 && bk.Overflows == 0 && bk.Violations == 0 {
			continue
		}
		fmt.Fprintf(&b, "%4d %10d %10d %10d %6d\n", i, bk.Allocs, bk.Overflows, bk.Violations, bk.MaxOccupancy)
	}
	b.WriteString("squashes by cause:")
	for c, n := range r.CauseCounts {
		fmt.Fprintf(&b, " %s=%d", trace.CauseName(uint32(c)), n)
	}
	b.WriteString("\nsquash distance:")
	for d, n := range r.SquashDist {
		if n > 0 {
			fmt.Fprintf(&b, " d%d=%d", d, n)
		}
	}
	b.WriteString("\n")
	return b.String()
}
