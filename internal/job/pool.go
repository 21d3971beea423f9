package job

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// The one fan-out primitive: the bench harness's sections, msserve's
// batch fan-out, the litmus matrix and a sampled job's detailed windows
// all run their independent simulations through RunJobs. Each call bounds
// its own fan-out by Workers with a semaphore of its own, so nested calls
// multiply: a served batch of sampled jobs runs each job's windows inside
// its batch slot, up to Workers² simulations at once. Results land in
// index-addressed slices, so output is byte-identical to the sequential
// path regardless of completion order.

var workers atomic.Int64

func init() { workers.Store(int64(runtime.GOMAXPROCS(0))) }

// SetWorkers bounds the number of concurrent jobs one RunJobs call runs.
// 1 forces the fully sequential path; values above GOMAXPROCS buy nothing
// but are harmless.
func SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	workers.Store(int64(n))
}

// Workers returns the current per-call bound.
func Workers() int { return int(workers.Load()) }

// RunJobs runs fn(0..n-1), fanning out across the worker pool. Each fn
// writes its result into its own slot of a caller-owned slice; RunJobs
// returns the lowest-index error so failures are deterministic.
func RunJobs(n int, fn func(i int) error) error {
	w := Workers()
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	sem := make(chan struct{}, w)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		sem <- struct{}{}
		wg.Add(1)
		go func(i int) {
			defer func() { <-sem; wg.Done() }()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
