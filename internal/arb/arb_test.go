package arb

import (
	"math/rand"
	"testing"

	"multiscalar/internal/mem"
	"multiscalar/internal/trace"
)

func newTestARB(units int, policy OverflowPolicy) (*ARB, *mem.Memory) {
	return New(units, 4, 16, policy), mem.NewMemory()
}

func TestLoadFromMemory(t *testing.T) {
	a, m := newTestARB(4, PolicyStall)
	m.WriteWord(0x100, 0xcafebabe)
	r := a.Load(0, 0, 4, 0x100, 4, m)
	if r.Overflow || uint32(r.Value) != 0xcafebabe {
		t.Fatalf("load = %+v", r)
	}
}

func TestStoreToLoadForwardingSameUnit(t *testing.T) {
	a, m := newTestARB(4, PolicyStall)
	m.WriteWord(0x100, 1111)
	if res := a.Store(1, 0, 4, 0x100, 4, 2222); res.Violator != -1 {
		t.Fatalf("unexpected violation %d", res.Violator)
	}
	r := a.Load(1, 0, 4, 0x100, 4, m)
	if uint32(r.Value) != 2222 {
		t.Errorf("load = %d, want 2222 (own store)", r.Value)
	}
	// Memory untouched (speculative).
	if m.ReadWord(0x100) != 1111 {
		t.Error("store leaked to memory")
	}
}

func TestLoadFromNearestPredecessor(t *testing.T) {
	a, m := newTestARB(4, PolicyStall)
	m.WriteWord(0x100, 1)
	a.Store(0, 0, 4, 0x100, 4, 100) // head stores
	a.Store(1, 0, 4, 0x100, 4, 200) // unit 1 stores
	r := a.Load(2, 0, 4, 0x100, 4, m)
	if uint32(r.Value) != 200 {
		t.Errorf("unit 2 load = %d, want 200 (nearest predecessor)", r.Value)
	}
	r = a.Load(1, 0, 4, 0x100, 4, m)
	if uint32(r.Value) != 200 {
		t.Errorf("unit 1 load = %d, want its own 200", r.Value)
	}
	r = a.Load(0, 0, 4, 0x100, 4, m)
	if uint32(r.Value) != 100 {
		t.Errorf("unit 0 load = %d, want 100", r.Value)
	}
}

func TestLoadIgnoresSuccessorStore(t *testing.T) {
	a, m := newTestARB(4, PolicyStall)
	m.WriteWord(0x100, 7)
	a.Store(2, 0, 4, 0x100, 4, 999) // later unit stores
	r := a.Load(1, 0, 4, 0x100, 4, m)
	if uint32(r.Value) != 7 {
		t.Errorf("load = %d, want 7 (memory; successor store invisible)", r.Value)
	}
}

func TestViolationDetected(t *testing.T) {
	a, m := newTestARB(4, PolicyStall)
	m.WriteWord(0x100, 7)
	// Unit 2 loads first (sees memory), then unit 1 stores: unit 2 read a
	// stale value -> violation naming unit 2.
	a.Load(2, 0, 4, 0x100, 4, m)
	res := a.Store(1, 0, 4, 0x100, 4, 42)
	if res.Violator != 2 {
		t.Fatalf("violator = %d, want 2", res.Violator)
	}
	if a.Violations != 1 {
		t.Errorf("violations = %d", a.Violations)
	}
}

func TestNoViolationWhenLoadAfterStore(t *testing.T) {
	a, m := newTestARB(4, PolicyStall)
	a.Store(1, 0, 4, 0x100, 4, 42)
	a.Load(2, 0, 4, 0x100, 4, m) // reads 42, correctly
	res := a.Store(0, 0, 4, 0x100, 4, 7)
	// Unit 2 read unit 1's value, which supersedes unit 0's store.
	if res.Violator != -1 {
		t.Fatalf("violator = %d, want none (intervening store)", res.Violator)
	}
}

func TestViolationEarliestSuccessorWins(t *testing.T) {
	a, m := newTestARB(8, PolicyStall)
	a.Load(3, 0, 8, 0x100, 4, m)
	a.Load(5, 0, 8, 0x100, 4, m)
	res := a.Store(1, 0, 8, 0x100, 4, 1)
	if res.Violator != 3 {
		t.Fatalf("violator = %d, want 3 (earliest)", res.Violator)
	}
}

func TestOwnStoreThenLoadNoViolation(t *testing.T) {
	a, m := newTestARB(4, PolicyStall)
	a.Store(2, 0, 4, 0x100, 4, 5)
	a.Load(2, 0, 4, 0x100, 4, m) // satisfied by own store: no load bit
	res := a.Store(1, 0, 4, 0x100, 4, 9)
	if res.Violator != -1 {
		t.Fatalf("violator = %d, want none", res.Violator)
	}
}

func TestLoadThenOwnStoreStillVulnerable(t *testing.T) {
	a, m := newTestARB(4, PolicyStall)
	m.WriteWord(0x100, 7)
	a.Load(2, 0, 4, 0x100, 4, m)   // reads memory
	a.Store(2, 0, 4, 0x100, 4, 50) // then stores itself
	res := a.Store(1, 0, 4, 0x100, 4, 9)
	// Unit 2's earlier load read 7, but sequentially it should have read
	// 9: must squash even though unit 2 also stored.
	if res.Violator != 2 {
		t.Fatalf("violator = %d, want 2", res.Violator)
	}
}

func TestByteGranularityNoFalseSharing(t *testing.T) {
	a, m := newTestARB(4, PolicyStall)
	m.SetByte(0x100, 0xaa)
	m.SetByte(0x101, 0xbb)
	a.Load(2, 0, 4, 0x101, 1, m)            // loads byte 1
	res := a.Store(1, 0, 4, 0x100, 1, 0x11) // stores byte 0
	if res.Violator != -1 {
		t.Fatalf("false violation across bytes: %d", res.Violator)
	}
	// Mixed sizes: word store covers the loaded byte -> violation.
	res = a.Store(0, 0, 4, 0x100, 4, 0xdeadbeef)
	if res.Violator != 2 {
		t.Fatalf("violator = %d, want 2 (word overlaps byte)", res.Violator)
	}
}

func TestPartialForwardMergesMemory(t *testing.T) {
	a, m := newTestARB(4, PolicyStall)
	m.WriteWord(0x100, 0x11223344)
	a.Store(1, 0, 4, 0x101, 1, 0xee) // store one middle byte
	r := a.Load(2, 0, 4, 0x100, 4, m)
	if uint32(r.Value) != 0x11ee3344 {
		t.Fatalf("merged load = %08x, want 11ee3344", uint32(r.Value))
	}
}

func TestCommitDrainsToMemory(t *testing.T) {
	a, m := newTestARB(4, PolicyStall)
	a.Store(0, 0, 4, 0x100, 4, 0x01020304)
	a.Store(0, 0, 4, 0x200, 2, 0xbeef)
	n := a.Commit(0, m)
	if n != 2 {
		t.Errorf("chunks written = %d", n)
	}
	if m.ReadWord(0x100) != 0x01020304 || uint32(m.ReadN(0x200, 2)) != 0xbeef {
		t.Error("commit did not write memory")
	}
	if a.Occupancy() != 0 {
		t.Errorf("occupancy = %d after commit", a.Occupancy())
	}
}

func TestClearUnitRemovesState(t *testing.T) {
	a, m := newTestARB(4, PolicyStall)
	m.WriteWord(0x100, 7)
	a.Store(2, 0, 4, 0x100, 4, 99)
	a.ClearUnit(2)
	r := a.Load(3, 0, 4, 0x100, 4, m)
	if uint32(r.Value) != 7 {
		t.Errorf("load after clear = %d, want 7", r.Value)
	}
	if a.Occupancy() != 1 {
		// the load by unit 3 allocated a fresh entry for its load bit
		t.Logf("occupancy = %d", a.Occupancy())
	}
}

func TestHeadWrapAround(t *testing.T) {
	// head = 6 in an 8-unit queue; units 6,7,0,1 active.
	a, m := newTestARB(8, PolicyStall)
	m.WriteWord(0x100, 7)
	a.Store(6, 6, 4, 0x100, 4, 100) // head
	a.Store(7, 6, 4, 0x100, 4, 200)
	r := a.Load(0, 6, 4, 0x100, 4, m) // distance 2: nearest predecessor is 7
	if uint32(r.Value) != 200 {
		t.Fatalf("wrapped load = %d, want 200", r.Value)
	}
	// Unit 1 (distance 3) loads; then head stores again: violation chain.
	a.Load(1, 6, 4, 0x104, 4, m)
	res := a.Store(6, 6, 4, 0x104, 4, 5)
	if res.Violator != 1 {
		t.Fatalf("violator = %d, want 1", res.Violator)
	}
}

func TestHeadLoadNoTracking(t *testing.T) {
	a, m := newTestARB(4, PolicyStall)
	a.Load(0, 0, 4, 0x300, 4, m) // head: no entry allocated
	if a.Occupancy() != 0 {
		t.Errorf("head load allocated an entry")
	}
}

func TestOverflow(t *testing.T) {
	a, m := newTestARB(4, PolicyStall)
	a.EntriesPerBank = 2
	// Fill bank 0 (chunks 0, 4, 8 map to bank 0 with 4 banks).
	a.Store(1, 0, 4, 0*8, 4, 1)
	a.Store(1, 0, 4, 4*8, 4, 1)
	res := a.Store(1, 0, 4, 8*8, 4, 1)
	if !res.Overflow {
		t.Fatal("expected overflow")
	}
	if !a.BankFull(8 * 8) {
		t.Error("BankFull should report full")
	}
	r := a.Load(2, 0, 4, 8*8, 4, m)
	if !r.Overflow {
		t.Error("tracked load should overflow too")
	}
	// Existing entries still work.
	if a.BankFull(0) {
		t.Error("existing chunk should not report full")
	}
}

// TestOverflowCountsEachAttempt pins the retry contract the timing
// loop's wakeup scheduler depends on: every failed allocation attempt
// increments Overflows (and emits a trace event when a sink is
// attached), so a unit retrying an overflowed access each cycle is a
// visible state change per cycle. The core marks those retry cycles as
// progress and never skips across them (internal/pu tryIssue,
// docs/perf.md); if overflow attempts ever became idempotent, that
// marking — and this test — should change together.
func TestOverflowCountsEachAttempt(t *testing.T) {
	a, m := newTestARB(4, PolicyStall)
	a.EntriesPerBank = 2
	a.Store(1, 0, 4, 0*8, 4, 1)
	a.Store(1, 0, 4, 4*8, 4, 1)
	if a.Overflows != 0 {
		t.Fatalf("Overflows = %d before any failure", a.Overflows)
	}
	// The same denied access, retried three times (three cycles).
	for i := 1; i <= 3; i++ {
		if res := a.Store(1, 0, 4, 8*8, 4, 1); !res.Overflow {
			t.Fatalf("attempt %d: expected overflow", i)
		}
		if a.Overflows != uint64(i) {
			t.Fatalf("Overflows = %d after %d attempts", a.Overflows, i)
		}
	}
	// A denied tracked load counts the same way.
	if r := a.Load(2, 0, 4, 8*8, 4, m); !r.Overflow {
		t.Fatal("tracked load should overflow")
	}
	if a.Overflows != 4 {
		t.Fatalf("Overflows = %d, want 4", a.Overflows)
	}
}

func TestView(t *testing.T) {
	a, m := newTestARB(4, PolicyStall)
	m.WriteBytes(0x100, []byte("abcdef"))
	a.Store(0, 0, 4, 0x102, 1, 'X')
	v := &View{ARB: a, Unit: 1, Head: 0, Active: 4, Backing: m}
	if v.Byte(0x101) != 'b' || v.Byte(0x102) != 'X' {
		t.Errorf("view = %c %c", v.Byte(0x101), v.Byte(0x102))
	}
	// A successor's store is invisible to the head's view.
	a.Store(2, 0, 4, 0x103, 1, 'Y')
	hv := &View{ARB: a, Unit: 0, Head: 0, Active: 4, Backing: m}
	if hv.Byte(0x103) != 'd' {
		t.Errorf("head view sees successor store")
	}
}

// Differential test: random interleavings of per-unit memory programs,
// with full squash-and-replay on violations, must converge to the
// sequential execution's memory image and load values.
func TestRandomizedSequentialEquivalence(t *testing.T) {
	const units = 4
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		type op struct {
			store bool
			addr  uint32
			size  int
			val   uint64
		}
		progs := make([][]op, units)
		for u := range progs {
			n := 1 + rng.Intn(6)
			for i := 0; i < n; i++ {
				sizes := []int{1, 2, 4, 8}
				size := sizes[rng.Intn(4)]
				addr := uint32(0x100 + rng.Intn(8)*size) // overlapping region
				addr -= addr % uint32(size)
				progs[u] = append(progs[u], op{
					store: rng.Intn(2) == 0,
					addr:  addr,
					size:  size,
					val:   rng.Uint64(),
				})
			}
		}

		// Sequential oracle.
		oracle := mem.NewMemory()
		var oracleLoads [][]uint64
		for u := 0; u < units; u++ {
			var loads []uint64
			for _, o := range progs[u] {
				if o.store {
					oracle.WriteN(o.addr, o.size, o.val)
				} else {
					loads = append(loads, oracle.ReadN(o.addr, o.size))
				}
			}
			oracleLoads = append(oracleLoads, loads)
		}

		// Speculative execution with replay.
		a := New(units, 2, 64, PolicyStall)
		backing := mem.NewMemory()
		gotLoads := make([][]uint64, units)

		runUnit := func(u int) int { // returns violator from this unit's stores, or -1
			gotLoads[u] = nil
			for _, o := range progs[u] {
				if o.store {
					res := a.Store(u, 0, units, o.addr, o.size, o.val)
					if res.Violator != -1 {
						return res.Violator
					}
				} else {
					r := a.Load(u, 0, units, o.addr, o.size, backing)
					gotLoads[u] = append(gotLoads[u], r.Value)
				}
			}
			return -1
		}

		// Phase 1: random interleaving, tracking the earliest violator.
		idx := make([]int, units)
		violator := -1
		for {
			var candidates []int
			for u := range progs {
				if idx[u] < len(progs[u]) {
					candidates = append(candidates, u)
				}
			}
			if len(candidates) == 0 {
				break
			}
			u := candidates[rng.Intn(len(candidates))]
			o := progs[u][idx[u]]
			idx[u]++
			if o.store {
				res := a.Store(u, 0, units, o.addr, o.size, o.val)
				if res.Violator != -1 && (violator == -1 || res.Violator < violator) {
					violator = res.Violator
				}
			} else {
				r := a.Load(u, 0, units, o.addr, o.size, backing)
				gotLoads[u] = append(gotLoads[u], r.Value)
			}
		}

		// Phase 2: squash violator..end and replay in order; repeat.
		for violator != -1 {
			for u := violator; u < units; u++ {
				a.ClearUnit(u)
			}
			v := -1
			for u := violator; u < units; u++ {
				if w := runUnit(u); w != -1 && (v == -1 || w < v) {
					v = w
				}
			}
			violator = v
		}

		// Commit in order and compare.
		for u := 0; u < units; u++ {
			a.Commit(u, backing)
		}
		if !backing.Equal(oracle) {
			t.Fatalf("trial %d: memory diverged", trial)
		}
		for u := 0; u < units; u++ {
			if len(gotLoads[u]) != len(oracleLoads[u]) {
				t.Fatalf("trial %d unit %d: load count %d vs %d", trial, u, len(gotLoads[u]), len(oracleLoads[u]))
			}
			for i := range gotLoads[u] {
				if gotLoads[u][i] != oracleLoads[u][i] {
					t.Fatalf("trial %d unit %d load %d: %x vs %x",
						trial, u, i, gotLoads[u][i], oracleLoads[u][i])
				}
			}
		}
	}
}

// TestPerBankStats pins the Stats() surface the litmus stressor
// reports: allocs, overflows, violations, and peak occupancy are
// attributed to the bank that owns the chunk, and the aggregates stay
// consistent with the flat lifetime counters.
func TestPerBankStats(t *testing.T) {
	a, m := newTestARB(4, PolicyStall)
	a.EntriesPerBank = 2
	// Two entries in bank 0 (chunks 0 and 4), then a refused third.
	a.Store(1, 0, 4, 0*8, 4, 1)
	a.Store(1, 0, 4, 4*8, 4, 2)
	if res := a.Store(1, 0, 4, 8*8, 4, 3); !res.Overflow {
		t.Fatal("expected overflow in bank 0")
	}
	// One entry in bank 1.
	a.Store(1, 0, 4, 1*8, 4, 4)
	// A violation in bank 2: unit 2 loads, then unit 1 stores the
	// same word.
	a.Load(2, 0, 4, 2*8, 4, m)
	if res := a.Store(1, 0, 4, 2*8, 4, 5); res.Violator != 2 {
		t.Fatalf("Violator = %d, want 2", res.Violator)
	}

	s := a.Stats()
	if got := a.BankIndex(2 * 8); got != 2 {
		t.Errorf("BankIndex(0x10) = %d, want 2", got)
	}
	want := []BankStats{
		{Allocs: 2, Overflows: 1, MaxOccupancy: 2},
		{Allocs: 1, MaxOccupancy: 1},
		{Allocs: 1, Violations: 1, MaxOccupancy: 1},
		{},
	}
	for i, w := range want {
		if s.Banks[i] != w {
			t.Errorf("bank %d stats = %+v, want %+v", i, s.Banks[i], w)
		}
	}
	if s.Allocs != 4 || s.MaxOccupancy != 2 {
		t.Errorf("aggregate Allocs=%d MaxOccupancy=%d, want 4, 2", s.Allocs, s.MaxOccupancy)
	}
	if s.Overflows != a.Overflows || s.Violations != a.Violations {
		t.Errorf("aggregates diverge from lifetime counters: %+v", s)
	}
	// Per-bank overflow/violation sums match the flat counters.
	var ov, vi uint64
	for _, b := range s.Banks {
		ov += b.Overflows
		vi += b.Violations
	}
	if ov != a.Overflows || vi != a.Violations {
		t.Errorf("per-bank sums ov=%d vi=%d, flat ov=%d vi=%d", ov, vi, a.Overflows, a.Violations)
	}

	a.Reset()
	for i, b := range a.Stats().Banks {
		if b != (BankStats{}) {
			t.Errorf("bank %d stats not reset: %+v", i, b)
		}
	}
}

// sinkFunc adapts a function to trace.Sink.
type sinkFunc func(trace.Event)

func (f sinkFunc) Emit(e trace.Event) { f(e) }

// TestZeroEntriesIsAbsent: an ARB built with no entries is no ARB. The
// one unit's loads read memory; its stores find no room, which the owner
// answers by writing through (head stores are non-speculative) exactly as
// on an overflow — but nothing overflowed: no count, no event, no
// allocation — and the written value reads back.
func TestZeroEntriesIsAbsent(t *testing.T) {
	a, m := New(1, 1, 0, PolicyStall), mem.NewMemory()
	a.Sink = sinkFunc(func(e trace.Event) { t.Errorf("event from an absent ARB: %v", e) })
	m.WriteWord(0x100, 0xcafebabe)
	if r := a.Load(0, 0, 1, 0x100, 4, m); r.Overflow || uint32(r.Value) != 0xcafebabe {
		t.Fatalf("load = %+v", r)
	}
	res := a.Store(0, 0, 1, 0x100, 4, 0x1234)
	if !res.Overflow || res.Violator != -1 {
		t.Fatalf("store = %+v, want it left to the caller", res)
	}
	m.WriteN(0x100, 4, 0x1234)
	if r := a.Load(0, 0, 1, 0x100, 4, m); r.Overflow || r.Value != 0x1234 {
		t.Fatalf("load after write-through = %+v", r)
	}
	if s := a.Stats(); s.Overflows != 0 || s.Allocs != 0 || s.StoreForwards != 0 || s.MaxOccupancy != 0 || a.Occupancy() != 0 {
		t.Errorf("absent ARB counted something: %+v", s)
	}
}
