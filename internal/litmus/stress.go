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

// BankAgg aggregates one bank index's counters across every run.
type BankAgg struct {
	Allocs       uint64
	Overflows    uint64
	Violations   uint64
	MaxOccupancy int
}

// StressReport is the stressor's aggregate outcome.
type StressReport struct {
	Seed     int64
	Programs int
	Runs     int

	Mismatches []*Mismatch

	// Aggregate ARB counters (summed over runs; MaxOccupancy is the
	// peak over runs).
	Allocs, Overflows, Violations, StoreForwards uint64
	MaxOccupancy                                 int
	Banks                                        [maxHistBanks]BankAgg

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
// checking every run against the generation-time oracle and folding
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
		local := &StressReport{}
		for _, units := range stressUnits {
			for _, entries := range stressEntries {
				for _, pol := range stressPolicies {
					e := MatrixEntry{Units: units, Policy: pol, Entries: entries}
					stressOne(p, e, opts.Seed, local)
				}
			}
		}
		mu.Lock()
		rep.merge(local)
		mu.Unlock()
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
// squash histograms into the local report.
func stressOne(p *Program, e MatrixEntry, seed int64, rep *StressReport) {
	sink := &squashSink{}
	m, mm := runCell(p, e, seed, sink)
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
	if st.MaxOccupancy > rep.MaxOccupancy {
		rep.MaxOccupancy = st.MaxOccupancy
	}
	for i, b := range st.Banks {
		if i >= maxHistBanks {
			break
		}
		rep.Banks[i].Allocs += b.Allocs
		rep.Banks[i].Overflows += b.Overflows
		rep.Banks[i].Violations += b.Violations
		if b.MaxOccupancy > rep.Banks[i].MaxOccupancy {
			rep.Banks[i].MaxOccupancy = b.MaxOccupancy
		}
	}
	for i, n := range sink.dist {
		rep.SquashDist[i] += n
	}
	for i, n := range sink.cause {
		rep.CauseCounts[i] += n
	}
}

func (r *StressReport) merge(o *StressReport) {
	r.Runs += o.Runs
	r.Mismatches = append(r.Mismatches, o.Mismatches...)
	r.Allocs += o.Allocs
	r.Overflows += o.Overflows
	r.Violations += o.Violations
	r.StoreForwards += o.StoreForwards
	if o.MaxOccupancy > r.MaxOccupancy {
		r.MaxOccupancy = o.MaxOccupancy
	}
	for i := range r.Banks {
		r.Banks[i].Allocs += o.Banks[i].Allocs
		r.Banks[i].Overflows += o.Banks[i].Overflows
		r.Banks[i].Violations += o.Banks[i].Violations
		if o.Banks[i].MaxOccupancy > r.Banks[i].MaxOccupancy {
			r.Banks[i].MaxOccupancy = o.Banks[i].MaxOccupancy
		}
	}
	for i := range r.SquashDist {
		r.SquashDist[i] += o.SquashDist[i]
	}
	for i := range r.CauseCounts {
		r.CauseCounts[i] += o.CauseCounts[i]
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
