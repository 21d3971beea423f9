package serve

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"multiscalar/internal/asm"
	"multiscalar/internal/core"
	"multiscalar/internal/job"
)

// testEngine builds a Local whose executor is fn instead of a real
// simulation.
func testEngine(o Options, fn func(*job.Spec) (*job.Output, error)) *Local {
	l := NewLocal(o)
	l.runJob = fn
	return l
}

// setWorkers sets the job budget an engine built next takes its slot
// count from, restoring it when the test ends.
func setWorkers(t *testing.T, n int) {
	prev := job.Workers()
	job.SetWorkers(n)
	t.Cleanup(func() { job.SetWorkers(prev) })
}

func simSpec(units int) *job.Spec {
	return &job.Spec{
		Op:       job.OpSimulate,
		Workload: "example",
		Scale:    -1,
		Mode:     asm.ModeMultiscalar,
		Config:   core.DefaultConfig(units, 1, false),
	}
}

// TestConcurrentDuplicatesSingleFlight pins the cache's admission
// contract under the race detector: N concurrent submissions of one spec
// run exactly one execution, and every submission gets a byte-identical
// result.
func TestConcurrentDuplicatesSingleFlight(t *testing.T) {
	var executions atomic.Int64
	eng := testEngine(Options{CacheEntries: 8}, func(s *job.Spec) (*job.Output, error) {
		executions.Add(1)
		time.Sleep(10 * time.Millisecond) // widen the admission window
		return &job.Output{Result: &core.Result{Cycles: 12345, Committed: 678, Out: "hello"}}, nil
	})

	const n = 32
	payloads := make([][]byte, n)
	cachedCount := atomic.Int64{}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := eng.Submit(context.Background(), fmt.Sprintf("client-%d", i%4), simSpec(8))
			if err != nil {
				t.Error(err)
				return
			}
			if res.Cached {
				cachedCount.Add(1)
			}
			// Compare the written payload without the per-retrieval flag.
			payloads[i] = []byte(written(res))
		}(i)
	}
	wg.Wait()
	if got := executions.Load(); got != 1 {
		t.Fatalf("%d executions for %d duplicate submissions, want exactly 1", got, n)
	}
	if got := cachedCount.Load(); got != n-1 {
		t.Fatalf("%d submissions reported cached, want %d", cachedCount.Load(), n-1)
	}
	for i := 1; i < n; i++ {
		if string(payloads[i]) != string(payloads[0]) {
			t.Fatalf("submission %d payload differs:\n%s\nvs\n%s", i, payloads[i], payloads[0])
		}
	}
	m := eng.Metrics()
	if m.Jobs != n || m.Executed != 1 || m.CacheHits != n-1 {
		t.Fatalf("metrics jobs=%d executed=%d hits=%d, want %d/1/%d", m.Jobs, m.Executed, m.CacheHits, n, n-1)
	}
}

// TestEvictionRespectsInFlight fills a capacity-1 cache past its bound
// while one entry is still executing: the in-flight entry must survive
// eviction and still answer its waiters, while finished entries are the
// ones evicted.
func TestEvictionRespectsInFlight(t *testing.T) {
	slowGate := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once
	setWorkers(t, 8)
	eng := testEngine(Options{CacheEntries: 1, PerClientInFlight: 8},
		func(s *job.Spec) (*job.Output, error) {
			if s.Config.NumUnits == 1 { // the slow job
				once.Do(func() { close(started) })
				<-slowGate
			}
			return &job.Output{Result: &core.Result{Cycles: uint64(s.Config.NumUnits)}}, nil
		})

	errc := make(chan error, 1)
	go func() {
		res, err := eng.Submit(context.Background(), "slow", simSpec(1))
		if err == nil && res.Sim.Cycles != 1 {
			err = fmt.Errorf("slow job got cycles=%d", res.Sim.Cycles)
		}
		errc <- err
	}()
	<-started

	// Churn the LRU well past capacity while the slow flight is open.
	for units := 2; units <= 6; units++ {
		if _, err := eng.Submit(context.Background(), "churn", simSpec(units)); err != nil {
			t.Fatal(err)
		}
	}
	m := eng.Metrics()
	if m.Evictions == 0 {
		t.Fatalf("expected evictions while churning a capacity-1 cache, metrics=%+v", m)
	}

	// A duplicate of the in-flight job must coalesce, not re-execute.
	dup := make(chan error, 1)
	go func() {
		res, err := eng.Submit(context.Background(), "dup", simSpec(1))
		if err == nil && !res.Cached {
			err = fmt.Errorf("duplicate of in-flight job re-executed")
		}
		dup <- err
	}()
	time.Sleep(5 * time.Millisecond)
	close(slowGate)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if err := <-dup; err != nil {
		t.Fatal(err)
	}
	if got := eng.Metrics().Executed; got != 6 {
		t.Fatalf("executed=%d, want 6 (5 churn + 1 slow, duplicate coalesced)", got)
	}
}

// TestErrorsAreNotCached pins that a failed execution is retried by the
// next submission instead of being served from cache.
func TestErrorsAreNotCached(t *testing.T) {
	var calls atomic.Int64
	eng := testEngine(Options{CacheEntries: 4}, func(s *job.Spec) (*job.Output, error) {
		if calls.Add(1) == 1 {
			return nil, fmt.Errorf("transient failure")
		}
		return &job.Output{Result: &core.Result{Cycles: 7}}, nil
	})
	if _, err := eng.Submit(context.Background(), "c", simSpec(8)); err == nil {
		t.Fatal("first submission should fail")
	}
	res, err := eng.Submit(context.Background(), "c", simSpec(8))
	if err != nil {
		t.Fatal(err)
	}
	if res.Cached || res.Sim.Cycles != 7 {
		t.Fatalf("retry not executed fresh: %+v", res)
	}
}

// TestPanickingJobIsContained pins the worker boundary: a job whose
// execution panics fails alone. Its submission gets an error naming the
// panic, the daemon goes on answering, its one execution slot comes back
// (with a budget of one worker a leaked slot would stall the retry until the deadline),
// and nothing is cached, so the next submission of the same key runs.
func TestPanickingJobIsContained(t *testing.T) {
	var calls atomic.Int64
	setWorkers(t, 1)
	eng := testEngine(Options{CacheEntries: 4}, func(s *job.Spec) (*job.Output, error) {
		if calls.Add(1) == 1 {
			panic("injected fault")
		}
		return &job.Output{Result: &core.Result{Cycles: 9}}, nil
	})
	srv := httptest.NewServer(NewHandler(eng))
	defer srv.Close()

	if _, err := eng.Submit(context.Background(), "c", simSpec(8)); err == nil || !strings.Contains(err.Error(), "injected fault") {
		t.Fatalf("panicking job: err = %v, want one naming the panic", err)
	}
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz after a panic: %s", resp.Status)
	}
	if m := eng.Metrics(); m.QueueDepth != 0 || m.InFlight != 0 || m.Errors != 1 || m.CacheEntries != 0 {
		t.Fatalf("after a panic: metrics %+v, want an empty queue, no slot held, one error, nothing cached", m)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	res, err := eng.Submit(ctx, "c", simSpec(8))
	if err != nil {
		t.Fatalf("retry after a panic: %v", err)
	}
	if res.Cached || res.Sim.Cycles != 9 || eng.Metrics().Executed != 1 {
		t.Fatalf("retry not executed fresh: %+v, metrics %+v", res, eng.Metrics())
	}
}

// TestDiskSpillSurvivesEvictionAndRestart pins the content-addressed
// spill: an evicted key — and a fresh engine over the same directory —
// answers from disk, byte-identically, without re-executing.
func TestDiskSpillSurvivesEvictionAndRestart(t *testing.T) {
	dir := t.TempDir()
	var executions atomic.Int64
	exec := func(s *job.Spec) (*job.Output, error) {
		executions.Add(1)
		return &job.Output{
			Result:   &core.Result{Cycles: uint64(s.Config.NumUnits), Out: "spillme"},
			Snapshot: []byte{0xde, 0xad, byte(s.Config.NumUnits)},
		}, nil
	}
	eng := testEngine(Options{CacheEntries: 1, SpillDir: dir}, exec)

	first, err := eng.Submit(context.Background(), "c", simSpec(4))
	if err != nil {
		t.Fatal(err)
	}
	// Evict key(units=4) by filling the capacity-1 LRU.
	if _, err := eng.Submit(context.Background(), "c", simSpec(8)); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Submit(context.Background(), "c", simSpec(4))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cached {
		t.Fatal("evicted key should be answered from the spill")
	}
	if a, b := written(first), written(res); a != b {
		t.Fatalf("spill round trip not byte-identical:\n%s\nvs\n%s", a, b)
	}

	// A fresh engine over the same directory: a daemon restart.
	eng2 := testEngine(Options{CacheEntries: 8, SpillDir: dir}, exec)
	res2, err := eng2.Submit(context.Background(), "c", simSpec(4))
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Cached || eng2.Metrics().DiskHits != 1 {
		t.Fatalf("restarted engine should answer from disk: cached=%v metrics=%+v", res2.Cached, eng2.Metrics())
	}
	if got := executions.Load(); got != 2 {
		t.Fatalf("executions=%d, want 2 (units=4 once, units=8 once)", got)
	}
}

// TestRealJobRoundTrip runs the engine over the real executor on a tiny
// workload: a resubmission must be a cache hit with an identical result,
// and the simulate result must carry real cycles.
func TestRealJobRoundTrip(t *testing.T) {
	eng := NewLocal(Options{CacheEntries: 16})
	spec := simSpec(2)
	spec.Verify = true
	first, err := eng.Submit(context.Background(), "t", spec)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached || first.Sim == nil || first.Sim.Cycles == 0 {
		t.Fatalf("first submission: %+v", first)
	}
	again, err := SubmitDecoded(context.Background(), eng, "t", spec)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached || again.Sim.Cycles != first.Sim.Cycles {
		t.Fatalf("resubmission not served from cache: %+v vs %+v", again, first)
	}

	// An assemble job returns the program container.
	asmSpec := &job.Spec{Op: job.OpAssemble, Workload: "example", Scale: -1, Mode: asm.ModeMultiscalar}
	prog, err := eng.Submit(context.Background(), "t", asmSpec)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Program) == 0 {
		t.Fatal("assemble job returned no program bytes")
	}

	// A trace-artifact job returns .mstrc bytes.
	trSpec := simSpec(2)
	trSpec.WantTrace = true
	tr, err := eng.Submit(context.Background(), "t", trSpec)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Trace) == 0 {
		t.Fatal("trace job returned no .mstrc bytes")
	}
	if tr.Sim.Cycles != first.Sim.Cycles {
		t.Fatalf("traced run cycles %d != untraced %d", tr.Sim.Cycles, first.Sim.Cycles)
	}
}

// TestJobStoresStayBounded pins that a daemon's memory does not grow with
// its request count: 2000 submissions that each bring a never-seen source
// text or inline program leave job's process-wide stores — programs and
// oracles; nothing is keyed by program pointer — and the engine's result
// cache at or below their fixed capacities, and the live heap where it
// was once those had filled: a program the stores evict takes its decoded
// µops and its memory image (16 KB of data segment each, here) with it.
func TestJobStoresStayBounded(t *testing.T) {
	job.ResetBuildMemo()
	progs0, oracles0 := job.Stats()
	eng := NewLocal(Options{CacheEntries: 64})
	const n = 2000
	const bound = 256 // job's store capacity
	live := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	var filled uint64
	for i := 0; i < n; i++ {
		if i == 3*bound {
			filled = live()
		}
		src := fmt.Sprintf("\t.data\nbuf:\t.space 16384\n\t.text\nmain:\n\tli $a0, %d\n\tli $v0, 1\n\tsyscall\n\tli $v0, 10\n\tli $a0, 0\n\tsyscall\n", i)
		spec := &job.Spec{Op: job.OpSimulate, Mode: asm.ModeScalar, Config: core.ScalarConfig(1, false), Verify: true}
		if i%2 == 0 {
			spec.Source = src
		} else {
			// What WireJob.Decode does for a base64 "program": a fresh
			// *isa.Program per request.
			p, err := asm.Assemble(src, asm.ModeScalar)
			if err != nil {
				t.Fatal(err)
			}
			spec.Program = p
		}
		res, err := eng.Submit(context.Background(), "c", spec)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cached || res.Sim.Out != fmt.Sprint(i) {
			t.Fatalf("request %d: cached=%v out=%q", i, res.Cached, res.Sim.Out)
		}
	}
	progs, oracles := job.Stats()
	if b, o := progs.Runs-progs0.Runs, oracles.Runs-oracles0.Runs; b != n/2 || o != n {
		t.Fatalf("expected %d builds and %d oracle runs, got %d and %d", n/2, n, b, o)
	}
	if progs.Entries > bound || oracles.Entries > bound {
		t.Fatalf("job stores grew with the request count: %d programs, %d oracles (bound %d)",
			progs.Entries, oracles.Entries, bound)
	}
	if progs.Evictions == progs0.Evictions || oracles.Evictions == oracles0.Evictions {
		t.Fatalf("2000 distinct programs should have evicted: %+v %+v", progs, oracles)
	}
	if m := eng.Metrics(); m.CacheEntries > 64 {
		t.Fatalf("result cache holds %d entries, bound 64", m.CacheEntries)
	}
	// The 1232 programs evicted since the stores filled carried 16 KB of
	// data segment each, and as much again in the image derived from it.
	if end := live(); end > filled+4<<20 {
		t.Fatalf("live heap grew from %d KB with the stores full to %d KB at the end: evicted programs are still reachable",
			filled>>10, end>>10)
	}
}
