// Package core assembles the full machine: the multiscalar processor of
// Figure 1 (circular queue of processing units, sequencer with task
// prediction, register forwarding ring, ARB, banked data caches). The
// scalar baseline the paper's speedups are measured against is its
// one-unit configuration running a binary without task descriptors
// (ScalarConfig, DESIGN.md §4).
package core

import (
	"fmt"

	"multiscalar/internal/arb"
	"multiscalar/internal/isa"
	"multiscalar/internal/trace"
)

// Config describes one machine configuration. The defaults reproduce
// Section 5.1 of the paper. The json tags and the field order are the
// canonical encoding (canonical.go): job keys and litmus artifacts are
// made of those bytes, so a semantic field is added, renamed or moved
// only with a CanonicalConfigVersion bump.
type Config struct {
	// Units and issue.
	NumUnits   int  `json:"num_units"`    // parallel processing units (1 for the scalar baseline)
	IssueWidth int  `json:"issue_width"`  // 1 or 2
	OutOfOrder bool `json:"out_of_order"` // out-of-order issue within a unit
	ROBSize    int  `json:"rob_size"`     // per-unit instruction window
	FetchQSize int  `json:"fetchq_size"`

	// Latencies.
	Latencies isa.Latencies `json:"latencies"`

	// Instruction caches: per unit.
	ICacheBytes int `json:"icache_bytes"` // 32 KB
	ICacheBlock int `json:"icache_block"` // 64 B

	// Data banks: 2x banks as units; 8 KB direct-mapped, 64 B blocks.
	DBankBytes  int `json:"dbank_bytes"`
	DBlockBytes int `json:"dblock_bytes"`
	DCacheHit   int `json:"dcache_hit"` // 2 for multiscalar units, 1 for the scalar baseline
	NumMSHRs    int `json:"num_mshrs"`

	// ARB.
	ARBEntries int                `json:"arb_entries"` // per bank (paper: 256)
	ARBPolicy  arb.OverflowPolicy `json:"arb_policy"`

	// Ring.
	RingLatency int `json:"ring_latency"` // cycles per hop (paper: 1)

	// Sequencer.
	DescCacheEntries int `json:"desc_cache_entries"` // task descriptor cache (paper: 1024)
	// StaticPredict disables the two-level predictor: the sequencer
	// always follows the first listed target (an ablation against the PAs
	// scheme of Section 5.1).
	StaticPredict bool `json:"static_predict"`

	// SharedFPUnits, when positive, shares the floating-point and complex
	// integer units between the processing units (the alternative
	// microarchitecture of Section 2.3): at most this many operations of
	// each of those classes may start per cycle machine-wide. Zero keeps
	// the paper's per-unit FUs.
	SharedFPUnits int `json:"shared_fp_units"`

	// Branch prediction within units.
	BranchEntries int `json:"branch_entries"`

	// Safety limit.
	MaxCycles uint64 `json:"max_cycles"`

	// NoSkip disables the wakeup scheduler: the timing loop ticks every
	// unit every cycle, even through stall windows it could prove
	// unchanging and jump over. Results (but CyclesTicked and UnitTicks)
	// and event traces are identical either way — that equivalence is
	// what the skip logic is tested against (docs/perf.md) — so, like
	// Sink, it is runtime-only: not keyed, and two configurations that
	// differ only in it describe the same machine.
	NoSkip bool `json:"-"`

	// Sink, when non-nil, receives the typed cycle-stamped event stream
	// (task lifecycle, unit occupancy, ring, ARB, memory system) defined
	// in internal/trace — see docs/tracing.md. Nil leaves every producer
	// on its untraced fast path; the usual way to set it is the facade's
	// WithTrace run option.
	Sink trace.Sink `json:"-"`
}

// DefaultConfig returns the paper's multiscalar configuration for the
// given unit count, issue width and issue order.
func DefaultConfig(units, width int, outOfOrder bool) Config {
	return Config{
		NumUnits:         units,
		IssueWidth:       width,
		OutOfOrder:       outOfOrder,
		ROBSize:          16,
		FetchQSize:       8,
		Latencies:        isa.Table1(),
		ICacheBytes:      32 << 10,
		ICacheBlock:      64,
		DBankBytes:       8 << 10,
		DBlockBytes:      64,
		DCacheHit:        2,
		NumMSHRs:         4,
		ARBEntries:       256,
		ARBPolicy:        arb.PolicyStall,
		RingLatency:      1,
		DescCacheEntries: 1024,
		BranchEntries:    2048,
		MaxCycles:        2_000_000_000,
	}
}

// ScalarConfig returns the scalar baseline: one identical processing unit
// with 1-cycle data cache hits and a 64 KB data cache.
func ScalarConfig(width int, outOfOrder bool) Config {
	c := DefaultConfig(1, width, outOfOrder)
	c.DCacheHit = 1
	c.DBankBytes = 64 << 10 // one 64 KB cache
	return c
}

// Validate reports the first field whose value no machine can be built
// from: a geometry that would divide by zero, index an empty table,
// allocate without bound or never start. NewMultiscalar calls it first,
// and msserve when it decodes a job, so a hostile configuration is a
// named error (400 at the door) instead of a panic inside the run. Every
// size is spelled out: zero is accepted only where it means an absence
// (arb_entries, shared_fp_units), never as a second spelling of a
// default.
func (c Config) Validate() error {
	const maxBytes, maxEntries, maxLatency = 1 << 28, 1 << 20, 1 << 16
	lat := c.Latencies
	for _, f := range []struct {
		name      string
		v, lo, hi int
		why       string
	}{
		{"num_units", c.NumUnits, 1, arb.MaxUnits, "the ARB tracks that many tasks"},
		{"issue_width", c.IssueWidth, 1, 64, "instructions issued per cycle"},
		{"rob_size", c.ROBSize, 1, 1 << 16, "producer distances are 16-bit"},
		{"fetchq_size", c.FetchQSize, 1, 1 << 16, "fetched instructions buffered"},
		{"icache_block", c.ICacheBlock, 1, maxBytes, "bytes per block"},
		{"icache_bytes", c.ICacheBytes, c.ICacheBlock, maxBytes, "at least one block"},
		{"dblock_bytes", c.DBlockBytes, 1, maxBytes, "bytes per block"},
		{"dbank_bytes", c.DBankBytes, c.DBlockBytes, maxBytes, "at least one block"},
		{"dcache_hit", c.DCacheHit, 0, maxEntries, "cycles"},
		{"num_mshrs", c.NumMSHRs, 1, maxEntries, "a miss needs one"},
		{"arb_entries", c.ARBEntries, 0, maxEntries, "per bank"},
		{"arb_policy", int(c.ARBPolicy), int(arb.PolicyStall), int(arb.PolicySquash), "0 stall, 1 squash"},
		{"ring_latency", c.RingLatency, 0, maxEntries, "cycles per hop"},
		{"desc_cache_entries", c.DescCacheEntries, 1, maxEntries, "a descriptor fetch needs one"},
		{"shared_fp_units", c.SharedFPUnits, 0, maxEntries, "0 keeps per-unit FUs"},
		{"branch_entries", c.BranchEntries, 1, maxEntries, "predictor entries"},
		// A latency below one would finish an operation before it issued,
		// and zero would only be a second key for one.
		{"latencies.IntAddSub", lat.IntAddSub, 1, maxLatency, "cycles"},
		{"latencies.ShiftLogic", lat.ShiftLogic, 1, maxLatency, "cycles"},
		{"latencies.IntMul", lat.IntMul, 1, maxLatency, "cycles"},
		{"latencies.IntDiv", lat.IntDiv, 1, maxLatency, "cycles"},
		{"latencies.Branch", lat.Branch, 1, maxLatency, "cycles"},
		{"latencies.SPAddSub", lat.SPAddSub, 1, maxLatency, "cycles"},
		{"latencies.SPMul", lat.SPMul, 1, maxLatency, "cycles"},
		{"latencies.SPDiv", lat.SPDiv, 1, maxLatency, "cycles"},
		{"latencies.DPAddSub", lat.DPAddSub, 1, maxLatency, "cycles"},
		{"latencies.DPMul", lat.DPMul, 1, maxLatency, "cycles"},
		{"latencies.DPDiv", lat.DPDiv, 1, maxLatency, "cycles"},
	} {
		if f.v < f.lo || f.v > f.hi {
			return fmt.Errorf("core: config %s = %d: want %d to %d (%s)", f.name, f.v, f.lo, f.hi, f.why)
		}
	}
	// The bimodal predictor indexes with entries-1 as a mask: any other
	// size would silently build a smaller table.
	if c.BranchEntries&(c.BranchEntries-1) != 0 {
		return fmt.Errorf("core: config branch_entries = %d: want a power of two (indexed by mask)", c.BranchEntries)
	}
	// A cache holds whole blocks: any other size would build the cache of
	// the next smaller multiple under a key of its own.
	if c.ICacheBytes%c.ICacheBlock != 0 {
		return fmt.Errorf("core: config icache_bytes = %d: want a multiple of icache_block (%d)", c.ICacheBytes, c.ICacheBlock)
	}
	if c.DBankBytes%c.DBlockBytes != 0 {
		return fmt.Errorf("core: config dbank_bytes = %d: want a multiple of dblock_bytes (%d)", c.DBankBytes, c.DBlockBytes)
	}
	return nil
}

// NumBanks returns the data bank count: twice the unit count (Figure 1),
// and a single bank on one unit.
func (c Config) NumBanks() int {
	if c.NumUnits <= 1 {
		return 1
	}
	return 2 * c.NumUnits
}
