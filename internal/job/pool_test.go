package job

import (
	"fmt"
	"testing"
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
