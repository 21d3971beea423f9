package predict

import (
	"bytes"
	"math/rand"
	"testing"

	"multiscalar/internal/snapshot"
)

// AdoptTables is the branch-predictor half of warm-state injection
// (internal/sample): table contents move, statistics and the
// intra-task RAS stay fresh. Train is how functional warming fills the
// tables.

// TestTrainMatchesPredictUpdate: Train leaves a predictor exactly as
// PredictTaken followed by UpdateTaken with its prediction does — the
// same counters, Lookups and Hits, the same State bytes — over a seeded
// stream of aliasing branches whose biases run from never to always
// taken, so counters saturate both ways.
func TestTrainMatchesPredictUpdate(t *testing.T) {
	pair, train := NewBranchPredictor(256), NewBranchPredictor(256)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50000; i++ {
		pc := 0x400000 + 4*uint32(rng.Intn(1024))
		taken := rng.Intn(4) < int(pc>>2)%5
		pair.UpdateTaken(pc, taken, pair.PredictTaken(pc))
		train.Train(pc, taken)
	}
	if train.Lookups != pair.Lookups || train.Hits != pair.Hits {
		t.Errorf("Train: %d lookups, %d hits; PredictTaken + UpdateTaken: %d, %d",
			train.Lookups, train.Hits, pair.Lookups, pair.Hits)
	}
	if pair.Hits == 0 || pair.Hits == pair.Lookups {
		t.Errorf("%d hits of %d lookups: the stream does not exercise both outcomes", pair.Hits, pair.Lookups)
	}
	state := func(b *BranchPredictor) []byte {
		data, err := snapshot.Save(snapshot.KindWarm, 0, b.State)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	if !bytes.Equal(state(train), state(pair)) {
		t.Error("Train left different State bytes from PredictTaken + UpdateTaken")
	}
}

func TestAdoptTables(t *testing.T) {
	src := NewBranchPredictor(64)
	pc := uint32(0x400100)
	for i := 0; i < 4; i++ {
		src.UpdateTaken(pc, true, src.PredictTaken(pc))
	}
	src.UpdateIndirect(0x400200, 0x400300)

	dst := NewBranchPredictor(64)
	if !dst.AdoptTables(src) {
		t.Fatal("AdoptTables rejected identical geometry")
	}
	if !dst.PredictTaken(pc) {
		t.Error("adopted counters lost the trained taken-bias")
	}
	if got := dst.PredictIndirect(0x400200); got != 0x400300 {
		t.Errorf("adopted indirect target 0x%x, want 0x400300", got)
	}

	small := NewBranchPredictor(16)
	if small.AdoptTables(src) {
		t.Error("AdoptTables accepted a geometry mismatch")
	}
}
