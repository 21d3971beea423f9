package job

import (
	"fmt"
	"log"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
)

// The one fan-out primitive: the bench harness's sections and points,
// the litmus matrix and a sampled job's windows all fan out through
// RunJobs, and every call in the process draws on one budget of
// Workers() runners.
//
// The rule: the goroutine that calls RunJobs is a runner. It claims and
// runs the call's jobs itself, and on entry recruits a helper for each
// free slot (Workers()-1 slots; the caller is the first runner). A helper
// out of jobs moves to the newest call with unclaimed ones and frees its
// slot when there is none; a caller whose jobs are all claimed lends its
// slot while the last ones finish on other runners. So a job that fans
// out runs its nested jobs on its own goroutine, and one call's tail is
// picked up by the runners another frees.
//
// It cannot deadlock: no goroutine waits for a slot. A caller waits only
// for its own claimed jobs, each on a goroutine running it, so waits
// follow the call tree down to jobs that do not fan out. It is bounded:
// helpers never outnumber free plus lent slots, the finisher of a
// lender's last job gives one back, and a nested caller is already its
// parent's runner, so a top-level call never runs more than Workers()
// jobs at once (TestOneBudget). Results land in index-addressed slices,
// so output is byte-identical to the sequential path in any order.

var workers atomic.Int64

func init() { workers.Store(int64(runtime.GOMAXPROCS(0))) }

// SetWorkers sets the process-wide budget of concurrent runners. 1 forces
// the fully sequential path: every job runs on its caller's goroutine.
// Values above GOMAXPROCS buy nothing but are harmless.
func SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	workers.Store(int64(n))
}

// Workers returns the process-wide budget.
func Workers() int { return int(workers.Load()) }

// budget is the pool's shared state.
var budget struct {
	sync.Mutex
	helpers int       // helper goroutines running
	lent    int       // slots lent by callers waiting for their last jobs
	open    []*fanout // calls with unclaimed jobs, in the order they began
}

// fanout is one RunJobs call. Its fields are guarded by budget.
type fanout struct {
	fn   func(i int) error
	errs []error
	next int  // next unclaimed index
	left int  // jobs not yet finished
	lent bool // the caller is waiting and has lent its slot
	done chan struct{}
}

// RunJobs runs fn(0..n-1) on the calling goroutine and on helpers from
// the process-wide budget. Each fn writes its result into its own slot of
// a caller-owned slice. Every job runs, a panic in one becomes its error
// (see Contain), and RunJobs returns the lowest-index error so failures
// are deterministic.
func RunJobs(n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	f := &fanout{fn: fn, errs: make([]error, n), left: n, done: make(chan struct{})}
	budget.Lock()
	budget.open = append(budget.open, f)
	recruitLocked(n - 1)
	for i := f.claimLocked(); i >= 0; i = f.claimLocked() {
		f.runLocked(i)
	}
	if f.left > 0 {
		f.lent = true
		budget.lent++
		recruitLocked(1)
	}
	budget.Unlock()
	<-f.done
	for _, err := range f.errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// recruitLocked starts up to n helpers, no more than the budget has free
// slots and only while some call has a job to claim.
func recruitLocked(n int) {
	if len(budget.open) == 0 {
		return
	}
	for n = min(n, Workers()-1+budget.lent-budget.helpers); n > 0; n-- {
		budget.helpers++
		go help()
	}
}

// help is a helper's life: run the newest open call's next job until no
// call has one left or the budget has no slot for it, then free the slot.
func help() {
	budget.Lock()
	for len(budget.open) > 0 && budget.helpers < Workers()+budget.lent {
		f := budget.open[len(budget.open)-1]
		f.runLocked(f.claimLocked())
	}
	budget.helpers--
	budget.Unlock()
}

// claimLocked returns f's next unclaimed index, or -1 when every job has
// been claimed; claiming the last one closes f to helpers.
func (f *fanout) claimLocked() int {
	if f.next == len(f.errs) {
		return -1
	}
	if f.next++; f.next == len(f.errs) {
		k := slices.Index(budget.open, f)
		budget.open = slices.Delete(budget.open, k, k+1)
	}
	return f.next - 1
}

// runLocked runs job i with the budget unlocked and records its outcome;
// the last job to finish takes back the slot its caller lent.
func (f *fanout) runLocked(i int) {
	budget.Unlock()
	err := Contain(func() error { return f.fn(i) })
	budget.Lock()
	f.errs[i] = err
	if f.left--; f.left == 0 {
		if f.lent {
			budget.lent--
		}
		close(f.done)
	}
}

// Contain runs fn at a worker boundary: a panic in fn becomes an error
// naming it, with the stack written to the log, so a broken job fails
// alone instead of taking the process with it. RunJobs runs every job
// through it, and msserve every execution.
func Contain(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			log.Printf("job: recovered panic: %v\n%s", r, debug.Stack())
			err = fmt.Errorf("job panicked: %v", r)
		}
	}()
	return fn()
}
