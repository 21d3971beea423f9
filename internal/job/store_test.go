package job

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"multiscalar/internal/asm"
	"multiscalar/internal/core"
	"multiscalar/internal/isa"
	"multiscalar/internal/workloads"
)

var bg = context.Background()

// put stores v under key (a miss that completes at once).
func put(t *testing.T, s *Store[int], key string, v int) {
	t.Helper()
	if _, hit, err := s.Do(bg, key, func() (int, error) { return v, nil }); hit || err != nil {
		t.Fatalf("put %s: hit=%v err=%v", key, hit, err)
	}
}

// waitHits blocks until the store has counted more than n hits — the
// event "another caller has parked on the flight".
func waitHits[V any](s *Store[V], n uint64) {
	for s.Stats().Hits <= n {
		runtime.Gosched()
	}
}

// resident reports whether key is answered without running fn.
func resident(s *Store[int], key string) bool {
	ran := false
	_, _, err := s.Do(bg, key, func() (int, error) { ran = true; return 0, errors.New("probe") })
	return !ran && err == nil
}

// TestStoreSingleFlight: N concurrent Do calls on one key run fn once and
// every caller shares the value; exactly one of them is the miss.
func TestStoreSingleFlight(t *testing.T) {
	s := NewStore[*int](4)
	var runs, misses atomic.Int64
	gate := make(chan struct{})
	const n = 32
	vals := make([]*int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, hit, err := s.Do(bg, "k", func() (*int, error) {
				runs.Add(1)
				<-gate // held open until every other caller has parked on the flight
				x := 42
				return &x, nil
			})
			if err != nil {
				t.Error(err)
			}
			if !hit {
				misses.Add(1)
			}
			vals[i] = v
		}(i)
	}
	waitHits(s, n-2)
	close(gate)
	wg.Wait()
	if runs.Load() != 1 || misses.Load() != 1 {
		t.Fatalf("fn ran %d times with %d misses for %d concurrent callers, want 1 and 1", runs.Load(), misses.Load(), n)
	}
	for i := range vals {
		if vals[i] != vals[0] {
			t.Fatalf("caller %d got a different value", i)
		}
	}
	if st := s.Stats(); st.Runs != 1 || st.Hits != n-1 || st.Entries != 1 {
		t.Fatalf("stats %+v, want 1 run, %d hits, 1 entry", st, n-1)
	}
}

// TestStoreEvictionOrderAndPinning: past capacity the least recently used
// finished entry goes first, while an in-flight entry — however old — is
// never evicted and still answers its waiters.
func TestStoreEvictionOrderAndPinning(t *testing.T) {
	s := NewStore[int](2)

	started, gate := make(chan struct{}), make(chan struct{})
	flight := make(chan error, 1)
	go func() {
		v, _, err := s.Do(bg, "slow", func() (int, error) { close(started); <-gate; return 99, nil })
		if err == nil && v != 99 {
			err = fmt.Errorf("slow flight returned %d", v)
		}
		flight <- err
	}()
	<-started

	put(t, s, "a", 1)
	put(t, s, "b", 2) // 3 entries > cap 2: "a" is the oldest finished one
	if resident(s, "a") || !resident(s, "b") {
		t.Fatal("want a evicted and b resident after inserting b")
	}
	put(t, s, "c", 3) // the older slow entry is pinned, so b goes
	if resident(s, "b") || !resident(s, "c") {
		t.Fatal("want b evicted and c resident after inserting c")
	}

	// A waiter on the pinned flight coalesces instead of re-running.
	parked := s.Stats().Hits
	waiter := make(chan error, 1)
	go func() {
		v, hit, err := s.Do(bg, "slow", func() (int, error) { return 0, errors.New("re-executed") })
		if err == nil && (!hit || v != 99) {
			err = fmt.Errorf("waiter got v=%d hit=%v", v, hit)
		}
		waiter <- err
	}()
	waitHits(s, parked)
	close(gate)
	if err := <-flight; err != nil {
		t.Fatal(err)
	}
	if err := <-waiter; err != nil {
		t.Fatal(err)
	}
	// Once finished and released, the slow entry is an ordinary LRU member,
	// and the waiter made it the most recently used: c goes next.
	put(t, s, "d", 4)
	if !resident(s, "slow") || resident(s, "c") {
		t.Fatal("want the finished flight resident and c evicted after inserting d")
	}
	if st := s.Stats(); st.Entries != 2 || st.Evictions != 3 {
		t.Fatalf("stats %+v, want 2 entries and 3 evictions", st)
	}
}

// TestStoreErrorsReachWaitersAndAreNotCached: a failed flight hands its
// error to every waiter, and the next Do retries.
func TestStoreErrorsReachWaitersAndAreNotCached(t *testing.T) {
	s := NewStore[int](4)
	boom := errors.New("boom")
	gate := make(chan struct{})
	const n = 8
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = s.Do(bg, "k", func() (int, error) { <-gate; return 0, boom })
		}(i)
	}
	waitHits(s, n-2)
	close(gate)
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, boom) {
			t.Fatalf("caller %d: err = %v, want boom", i, err)
		}
	}
	if st := s.Stats(); st.Runs != 1 || st.Entries != 0 {
		t.Fatalf("stats %+v, want 1 run and no resident entry", st)
	}
	v, hit, err := s.Do(bg, "k", func() (int, error) { return 7, nil })
	if v != 7 || hit || err != nil {
		t.Fatalf("retry after error: v=%d hit=%v err=%v, want a fresh run", v, hit, err)
	}
}

// TestStoreWaiterCancelLeavesFlight: a waiter whose context is cancelled
// returns at once; the flight finishes and its value is stored.
func TestStoreWaiterCancelLeavesFlight(t *testing.T) {
	s := NewStore[int](4)
	started, gate := make(chan struct{}), make(chan struct{})
	flight := make(chan error, 1)
	go func() {
		_, _, err := s.Do(bg, "k", func() (int, error) { close(started); <-gate; return 5, nil })
		flight <- err
	}()
	<-started

	ctx, cancel := context.WithCancel(bg)
	cancel()
	if _, _, err := s.Do(ctx, "k", func() (int, error) { return 0, errors.New("re-executed") }); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter: err = %v, want context.Canceled", err)
	}
	close(gate)
	if err := <-flight; err != nil {
		t.Fatalf("flight disturbed by a waiter's cancellation: %v", err)
	}
	if v, hit, err := s.Do(bg, "k", func() (int, error) { return 0, errors.New("re-executed") }); v != 5 || !hit || err != nil {
		t.Fatalf("after the flight: v=%d hit=%v err=%v", v, hit, err)
	}
}

// TestStorePanicReleasesWaiters: a panicking fn propagates to its caller
// and wakes the flight's waiters with an error instead of stranding them.
func TestStorePanicReleasesWaiters(t *testing.T) {
	s := NewStore[int](4)
	started, gate := make(chan struct{}), make(chan struct{})
	go func() {
		defer func() { _ = recover() }()
		_, _, _ = s.Do(bg, "k", func() (int, error) { close(started); <-gate; panic("fn blew up") })
	}()
	<-started
	waiter := make(chan error, 1)
	go func() {
		_, _, err := s.Do(bg, "k", func() (int, error) { return 0, nil })
		waiter <- err
	}()
	waitHits(s, 0)
	close(gate)
	if err := <-waiter; err == nil {
		t.Fatal("waiter of a panicked flight got no error")
	}
	if s.Stats().Entries != 0 {
		t.Fatal("panicked flight left an entry behind")
	}
}

func TestStoreResetAndUnbounded(t *testing.T) {
	s := NewStore[int](0)
	for i := 0; i < 1000; i++ {
		put(t, s, fmt.Sprint(i), i)
	}
	if st := s.Stats(); st.Entries != 1000 || st.Evictions != 0 {
		t.Fatalf("capacity 0 must be unbounded: %+v", st)
	}
	s.Reset()
	if st := s.Stats(); st.Entries != 0 {
		t.Fatalf("after Reset: %+v", st)
	}
	if resident(s, "7") {
		t.Fatal("Reset left key 7 resident")
	}
}

// TestVerifySharesOneOracleRun: verified Execute runs over one program ×
// eight configurations file one oracle per distinct input — the counts of
// the functional machine each judged run stepped, equal to a fresh
// RunOracle — so a later CachedOracle of that program and input is a hit,
// not another interpretation.
func TestVerifySharesOneOracleRun(t *testing.T) {
	ResetBuildMemo()
	configs := []core.Config{
		core.DefaultConfig(2, 1, false), core.DefaultConfig(4, 1, false),
		core.DefaultConfig(8, 1, false), core.DefaultConfig(16, 1, false),
		core.DefaultConfig(2, 2, true), core.DefaultConfig(4, 2, true),
		core.DefaultConfig(8, 2, true), core.DefaultConfig(1, 1, false),
	}
	s := baseSpec()
	s.Scale = 20 // the workload's fast test scale
	p, err := s.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	for _, stdin := range [][]byte{nil, []byte("a"), []byte("b"), []byte("a")} {
		for _, cfg := range configs {
			s.Config, s.Stdin, s.Verify = cfg, stdin, true
			if _, err := Execute(s, nil); err != nil {
				t.Fatal(err)
			}
		}
		_, before := Stats()
		o, err := CachedOracle(p, stdin, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, after := Stats(); after.Runs != before.Runs {
			t.Fatalf("stdin %q: CachedOracle after verified runs interpreted the program again", stdin)
		}
		var in io.Reader
		if stdin != nil {
			in = bytes.NewReader(stdin)
		}
		want, err := RunOracle(p, in, 0)
		if err != nil {
			t.Fatal(err)
		}
		if *o != *want {
			t.Fatalf("stdin %q: stored oracle %+v, a fresh run gives %+v", stdin, *o, *want)
		}
	}
	if _, st := Stats(); st.Entries != 3 {
		t.Fatalf("%d oracles stored for one program under {none, a, b}, want 3", st.Entries)
	}
	// The instruction bound is part of the identity too.
	_, before := Stats()
	if _, err := CachedOracle(p, nil, 1<<30); err != nil {
		t.Fatal(err)
	}
	if _, st := Stats(); st.Runs-before.Runs != 1 {
		t.Fatalf("a different MaxInstrs must not alias: %d runs, want 1", st.Runs-before.Runs)
	}
}

// TestProgramEncodingDeterministic: the .msb bytes of a program — and so
// ProgramHash and every Spec.Key over an inline program — do not depend
// on symbol-map iteration order, and survive a container round trip.
func TestProgramEncodingDeterministic(t *testing.T) {
	p, err := workloads.Get("gcc").Build(asm.ModeMultiscalar, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Symbols) < 2 {
		t.Fatalf("gcc has %d symbols; the test needs several", len(p.Symbols))
	}
	var first bytes.Buffer
	if err := isa.WriteProgram(&first, p); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 50; i++ {
		var buf bytes.Buffer
		if err := isa.WriteProgram(&buf, p); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), first.Bytes()) {
			t.Fatalf("encoding %d of gcc differs from the first", i)
		}
	}
	back, err := isa.ReadProgram(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	h1, err := ProgramHash(p)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := ProgramHash(back)
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Fatal("ProgramHash changed across a WriteProgram/ReadProgram round trip")
	}
}

// TestResetBuildMemoDropsEveryStore: programs and oracles both go, so the
// next job is cold — and nothing derived from a dropped program (the
// interpreter's decoded µops, its memory image) keeps it reachable.
func TestResetBuildMemoDropsEveryStore(t *testing.T) {
	s := baseSpec()
	s.Scale, s.Verify = 20, true
	if _, err := Execute(s, nil); err != nil {
		t.Fatal(err)
	}
	if progs, orcs := Stats(); progs.Entries == 0 || orcs.Entries == 0 {
		t.Fatalf("warm stores: %d programs, %d oracles", progs.Entries, orcs.Entries)
	}
	p, err := s.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	collected := make(chan struct{})
	runtime.SetFinalizer(p, func(*isa.Program) { close(collected) })
	p = nil
	ResetBuildMemo()
	if progs, orcs := Stats(); progs.Entries != 0 || orcs.Entries != 0 {
		t.Fatalf("after ResetBuildMemo: %d programs, %d oracles", progs.Entries, orcs.Entries)
	}
	for i := 0; i < 10; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("the program built before ResetBuildMemo is still reachable")
}
