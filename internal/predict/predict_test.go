package predict

import "testing"

func TestTaskPredictorLearnsConstantTarget(t *testing.T) {
	p := &TaskPredictor{}
	addr := uint32(0x1000)
	// Train: always target 2.
	for i := 0; i < 20; i++ {
		hist := p.History(addr)
		got := p.Predict(addr)
		p.UpdateWith(hist, addr, 2, got)
	}
	hist := p.History(addr)
	got := p.Predict(addr)
	p.UpdateWith(hist, addr, 2, got)
	if got != 2 {
		t.Errorf("predicted %d after training, want 2", got)
	}
	if 2*p.Correct < p.Predictions {
		t.Errorf("%d of %d predictions correct", p.Correct, p.Predictions)
	}
}

func TestTaskPredictorLearnsAlternatingPattern(t *testing.T) {
	p := &TaskPredictor{}
	addr := uint32(0x2000)
	// Pattern: 0,1,0,1,... a two-level predictor should learn it.
	correct := 0
	for i := 0; i < 200; i++ {
		actual := i % 2
		hist := p.History(addr)
		got := p.Predict(addr)
		if got == actual && i >= 100 {
			correct++
		}
		p.UpdateWith(hist, addr, actual, got)
	}
	if correct < 95 {
		t.Errorf("late-phase correct = %d/100 on alternating pattern", correct)
	}
}

func TestTaskPredictorLoopExitPattern(t *testing.T) {
	p := &TaskPredictor{}
	addr := uint32(0x3000)
	// 5 iterations of target 0 then one target 1, repeated: mimics a
	// short loop. The history (6 outcomes) covers the period.
	correct := 0
	total := 0
	for rep := 0; rep < 60; rep++ {
		for i := 0; i < 6; i++ {
			actual := 0
			if i == 5 {
				actual = 1
			}
			hist := p.History(addr)
			got := p.Predict(addr)
			if rep >= 30 {
				total++
				if got == actual {
					correct++
				}
			}
			p.UpdateWith(hist, addr, actual, got)
		}
	}
	if float64(correct)/float64(total) < 0.9 {
		t.Errorf("loop-exit accuracy = %d/%d", correct, total)
	}
}

func TestTaskPredictorSnapshotRestore(t *testing.T) {
	p := &TaskPredictor{}
	addr := uint32(0x1000)
	snap := p.Snapshot()
	h0 := p.History(addr)
	p.Predict(addr)
	if p.History(addr) == h0 {
		t.Skip("history did not shift (predicted 0 into zero history)")
	}
	p.Restore(snap)
	if p.History(addr) != h0 {
		t.Error("restore did not reinstate history")
	}
}

func TestFixHistory(t *testing.T) {
	p := &TaskPredictor{}
	addr := uint32(0x1000)
	hist := p.History(addr)
	p.Predict(addr) // speculatively shifts predicted target
	p.FixHistory(addr, hist, 3)
	want := (hist<<2 | 3) & historyMask
	if p.History(addr) != want {
		t.Errorf("history = %03x, want %03x", p.History(addr), want)
	}
}

func TestRASBasic(t *testing.T) {
	r := &RAS{}
	if r.Pop() != 0 {
		t.Error("empty pop should be 0")
	}
	r.Push(0x100)
	r.Push(0x200)
	if r.depth != 2 {
		t.Errorf("depth = %d", r.depth)
	}
	if r.Pop() != 0x200 || r.Pop() != 0x100 {
		t.Error("LIFO order wrong")
	}
	if r.Pop() != 0 {
		t.Error("underflow should return 0")
	}
}

func TestRASOverflowWraps(t *testing.T) {
	r := &RAS{}
	for i := 0; i < 70; i++ {
		r.Push(uint32(i))
	}
	if r.depth != 64 {
		t.Errorf("depth = %d", r.depth)
	}
	if got := r.Pop(); got != 69 {
		t.Errorf("top = %d", got)
	}
}

func TestRASSnapshotRestore(t *testing.T) {
	r := &RAS{}
	r.Push(1)
	r.Push(2)
	s := r.Snapshot()
	r.Pop()
	r.Pop()
	r.Restore(s)
	if r.Pop() != 2 || r.Pop() != 1 {
		t.Error("restore failed")
	}
}

func TestBranchPredictorLearns(t *testing.T) {
	b := NewBranchPredictor(1024)
	pc := uint32(0x1000)
	for i := 0; i < 10; i++ {
		got := b.PredictTaken(pc)
		b.UpdateTaken(pc, true, got)
	}
	if !b.PredictTaken(pc) {
		t.Error("should predict taken after training")
	}
	// Hysteresis: one not-taken shouldn't flip it.
	b.UpdateTaken(pc, false, true)
	if !b.PredictTaken(pc) {
		t.Error("single contrary outcome flipped prediction")
	}
}

func TestBranchPredictorAliasing(t *testing.T) {
	b := NewBranchPredictor(4)
	// pcs 0 and 16 alias in a 4-entry table.
	got0 := b.PredictTaken(0)
	b.UpdateTaken(0, true, got0)
	b.UpdateTaken(0, true, b.PredictTaken(0))
	if !b.PredictTaken(16) {
		t.Error("aliased entry should predict taken")
	}
}

func TestUnitRAS(t *testing.T) {
	b := NewBranchPredictor(16)
	b.PushReturn(0x100)
	b.PushReturn(0x200)
	if b.PredictReturn() != 0x200 || b.PredictReturn() != 0x100 {
		t.Error("unit RAS order wrong")
	}
	if b.PredictReturn() != 0 {
		t.Error("empty unit RAS should predict 0")
	}
	b.PushReturn(0x300)
	b.ClearRAS()
	if b.PredictReturn() != 0 {
		t.Error("ClearRAS failed")
	}
}

func TestIndirectTargetTable(t *testing.T) {
	b := NewBranchPredictor(16)
	if b.PredictIndirect(0x40) != 0 {
		t.Error("cold indirect should be 0")
	}
	b.UpdateIndirect(0x40, 0x5000)
	if b.PredictIndirect(0x40) != 0x5000 {
		t.Error("indirect table failed")
	}
}
