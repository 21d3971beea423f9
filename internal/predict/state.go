package predict

import "multiscalar/internal/snapshot"

// State walks the task predictor's tables and statistics (trace wiring
// is not state).
func (p *TaskPredictor) State(c *snapshot.Codec) {
	c.Tag("TPRD")
	c.U16s(p.histories[:])
	c.Raw(p.pattern[:])
	c.U64(&p.Predictions)
	c.U64(&p.Correct)
}

// State walks the return address stack. Cursor fields out of range are
// rejected and zeroed, so a corrupt snapshot cannot index out of bounds.
func (r *RAS) State(c *snapshot.Codec) {
	c.Tag("RAS ")
	c.U32s(r.entries[:])
	c.Int(&r.top)
	c.Int(&r.depth)
	if r.top < 0 || r.top >= len(r.entries) || r.depth < 0 || r.depth > len(r.entries) {
		c.Failf("RAS cursor out of range (top %d, depth %d)", r.top, r.depth)
		r.top, r.depth = 0, 0
	}
}

// State walks the branch predictor's tables and statistics; table sizes
// must match the constructed configuration.
func (b *BranchPredictor) State(c *snapshot.Codec) {
	c.Tag("BPRD")
	if n := c.Len(len(b.counters), 1<<24, 1); n != len(b.counters) {
		c.Failf("branch predictor: %d counters, machine has %d", n, len(b.counters))
	}
	if c.Err() != nil {
		return
	}
	c.Raw(b.counters)
	c.U32s(b.ras[:])
	c.Int(&b.rasTop)
	c.Int(&b.rasDepth)
	if b.rasTop < 0 || b.rasTop >= len(b.ras) || b.rasDepth < 0 || b.rasDepth > len(b.ras) {
		c.Failf("branch predictor RAS cursor out of range (top %d, depth %d)", b.rasTop, b.rasDepth)
		b.rasTop, b.rasDepth = 0, 0
	}
	if n := c.Len(len(b.targets), 1<<24, 4); n != len(b.targets) {
		c.Failf("branch predictor: %d targets, machine has %d", n, len(b.targets))
	}
	if c.Err() != nil {
		return
	}
	c.U32s(b.targets)
	c.U64(&b.Lookups)
	c.U64(&b.Hits)
}
