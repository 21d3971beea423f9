package predict

// BranchPredictor is the per-processing-unit branch direction predictor: a
// bimodal table of 2-bit saturating counters. Branch targets come from the
// decoded instruction (the simulator fetches decoded text), so no BTB is
// modeled; indirect jumps (jr/jalr) inside a task are predicted with a
// small per-unit return address stack plus a last-target table.
type BranchPredictor struct {
	counters []uint8
	mask     uint32

	// per-unit return address stack for calls executed inside a task
	ras      [16]uint32
	rasTop   int
	rasDepth int

	// last-target table for jalr
	targets []uint32

	// Stats
	Lookups uint64
	Hits    uint64
}

// NewBranchPredictor builds a bimodal predictor with the given number of
// 2-bit entries (must be a power of two).
func NewBranchPredictor(entries int) *BranchPredictor {
	return &BranchPredictor{
		counters: make([]uint8, entries),
		mask:     uint32(entries - 1),
		targets:  make([]uint32, 512),
	}
}

func (b *BranchPredictor) index(pc uint32) uint32 { return (pc >> 2) & b.mask }

// PredictTaken predicts the direction of the conditional branch at pc.
func (b *BranchPredictor) PredictTaken(pc uint32) bool {
	b.Lookups++
	return b.counters[b.index(pc)] >= 2
}

// UpdateTaken trains the direction predictor with the actual outcome.
func (b *BranchPredictor) UpdateTaken(pc uint32, taken, predicted bool) {
	c := &b.counters[b.index(pc)]
	if taken {
		if *c < 3 {
			*c++
		}
	} else if *c > 0 {
		*c--
	}
	if taken == predicted {
		b.Hits++
	}
}

// Train is PredictTaken followed by UpdateTaken with that prediction,
// indexing the table once: the counters, Lookups and Hits end as the
// pair leaves them. Functional warming trains on committed outcomes
// with it.
func (b *BranchPredictor) Train(pc uint32, taken bool) {
	b.Lookups++
	c := &b.counters[b.index(pc)]
	if (*c >= 2) == taken {
		b.Hits++
	}
	if taken {
		if *c < 3 {
			*c++
		}
	} else if *c > 0 {
		*c--
	}
}

// PushReturn records a return address at a call inside the task.
func (b *BranchPredictor) PushReturn(addr uint32) {
	b.ras[b.rasTop] = addr
	b.rasTop = (b.rasTop + 1) % len(b.ras)
	if b.rasDepth < len(b.ras) {
		b.rasDepth++
	}
}

// PredictReturn predicts the target of a jr (0 if the stack is empty).
func (b *BranchPredictor) PredictReturn() uint32 {
	if b.rasDepth == 0 {
		return 0
	}
	b.rasTop = (b.rasTop - 1 + len(b.ras)) % len(b.ras)
	b.rasDepth--
	return b.ras[b.rasTop]
}

// PredictIndirect predicts a jalr target from the last-target table.
func (b *BranchPredictor) PredictIndirect(pc uint32) uint32 {
	return b.targets[(pc>>2)&uint32(len(b.targets)-1)]
}

// UpdateIndirect trains the last-target table.
func (b *BranchPredictor) UpdateIndirect(pc uint32, target uint32) {
	b.targets[(pc>>2)&uint32(len(b.targets)-1)] = target
}

// AdoptTables copies another predictor's trained tables (direction
// counters and last-target entries) into this one, leaving the RAS and
// statistics alone. Warm-state injection uses it to seed every unit's
// predictor from the one predictor trained during functional
// fast-forward; the RAS is excluded because units clear it at every
// task start anyway.
func (b *BranchPredictor) AdoptTables(src *BranchPredictor) bool {
	if len(src.counters) != len(b.counters) || len(src.targets) != len(b.targets) {
		return false
	}
	copy(b.counters, src.counters)
	copy(b.targets, src.targets)
	return true
}

// ClearRAS empties the per-unit return stack (on task squash/assign).
func (b *BranchPredictor) ClearRAS() { b.rasTop, b.rasDepth = 0, 0 }

// Reset clears everything including statistics.
func (b *BranchPredictor) Reset() {
	for i := range b.counters {
		b.counters[i] = 0
	}
	for i := range b.targets {
		b.targets[i] = 0
	}
	b.ClearRAS()
	b.Lookups, b.Hits = 0, 0
}
