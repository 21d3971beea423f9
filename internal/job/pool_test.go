package job

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// withWorkers runs the body under a specific pool bound, restoring the
// process-wide setting afterwards.
func withWorkers(t *testing.T, n int, fn func()) {
	t.Helper()
	old := Workers()
	SetWorkers(n)
	defer SetWorkers(old)
	fn()
}

func TestRunJobsReturnsLowestIndexError(t *testing.T) {
	errAt := func(bad ...int) func(i int) error {
		return func(i int) error {
			for _, b := range bad {
				if i == b {
					return fmt.Errorf("job %d failed", i)
				}
			}
			return nil
		}
	}
	for _, workers := range []int{1, 8} {
		withWorkers(t, workers, func() {
			err := RunJobs(10, errAt(7, 3, 9))
			if err == nil || err.Error() != "job 3 failed" {
				t.Errorf("workers=%d: err = %v, want job 3's", workers, err)
			}
			if err := RunJobs(10, errAt()); err != nil {
				t.Errorf("workers=%d: unexpected error %v", workers, err)
			}
		})
	}
}

// gauge counts the jobs running at once and keeps the peak.
type gauge struct{ now, peak atomic.Int64 }

func (g *gauge) enter() {
	n := g.now.Add(1)
	for p := g.peak.Load(); n > p && !g.peak.CompareAndSwap(p, n); p = g.peak.Load() {
	}
}

func (g *gauge) leave() { g.now.Add(-1) }

// TestOneBudget: nested fan-outs share the one budget instead of
// multiplying it. An 8 × 8 fan-out never has more than Workers() inner
// jobs running at once, where a semaphore per call would allow Workers²,
// and it finishes: the outer jobs' nested work runs on their own
// goroutines.
func TestOneBudget(t *testing.T) {
	for _, w := range []int{1, 2, 3, 8} {
		withWorkers(t, w, func() {
			var g gauge
			var ran atomic.Int64
			err := RunJobs(8, func(int) error {
				return RunJobs(8, func(int) error {
					g.enter()
					defer g.leave()
					time.Sleep(200 * time.Microsecond)
					ran.Add(1)
					return nil
				})
			})
			if err != nil {
				t.Fatal(err)
			}
			if ran.Load() != 64 {
				t.Errorf("workers=%d: %d of 64 inner jobs ran", w, ran.Load())
			}
			if p := g.peak.Load(); p > int64(w) {
				t.Errorf("workers=%d: %d inner jobs ran at once", w, p)
			}
		})
	}
}

// fillsBudget reports whether a fan-out of Workers() jobs gets every one
// of them running at the same moment.
func fillsBudget(t *testing.T) bool {
	t.Helper()
	w := Workers()
	var arrived atomic.Int64
	var full atomic.Bool
	if err := RunJobs(w, func(int) error {
		arrived.Add(1)
		for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(100 * time.Microsecond) {
			if arrived.Load() == int64(w) {
				full.Store(true)
				break
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return full.Load()
}

// TestRunJobsContainsPanic: a panicking job is its index's error, naming
// the panic, and its neighbours still run; the runner it was on goes back
// to the budget, so a later fan-out still reaches Workers() at once.
func TestRunJobsContainsPanic(t *testing.T) {
	withWorkers(t, 4, func() {
		for round := 0; round < 3; round++ {
			var ran atomic.Int64
			err := RunJobs(8, func(i int) error {
				ran.Add(1)
				if i == 2 || i == 5 {
					panic(fmt.Sprintf("boom %d", i))
				}
				return nil
			})
			if err == nil || !strings.Contains(err.Error(), "boom 2") {
				t.Fatalf("err = %v, want job 2's panic", err)
			}
			if ran.Load() != 8 {
				t.Fatalf("%d of 8 jobs ran", ran.Load())
			}
		}
		if !fillsBudget(t) {
			t.Fatal("after panics, a fan-out of Workers() jobs never had them all running: a slot leaked")
		}
	})
}

func TestRunJobsRunsEveryJob(t *testing.T) {
	withWorkers(t, 4, func() {
		hit := make([]bool, 50)
		if err := RunJobs(len(hit), func(i int) error { hit[i] = true; return nil }); err != nil {
			t.Fatal(err)
		}
		for i, h := range hit {
			if !h {
				t.Errorf("job %d never ran", i)
			}
		}
	})
}
