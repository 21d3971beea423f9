package arb

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"multiscalar/internal/mem"
	"multiscalar/internal/snapshot"
	"multiscalar/internal/trace"
)

// memBytes is a memory's snapshot section: its written pages in
// ascending order, so two memories written at the same addresses compare
// equal exactly when their contents do.
func memBytes(t *testing.T, m *mem.Memory) []byte {
	t.Helper()
	data, err := snapshot.Save(snapshot.KindMultiscalar, 0, m.State)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

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
	if n := live(a); n != 0 {
		t.Errorf("%d entries live after commit", n)
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
	// The cleared entry was freed; unit 3's load bit allocated it afresh.
	if n, s := live(a), a.Stats(); n != 1 || s.Allocs != 2 {
		t.Errorf("%d entries live after %d allocations, want 1 after 2", n, s.Allocs)
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
	if a.Stats().Allocs != 0 {
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
	if b := a.Stats().Banks[0]; b.Overflows != 1 || b.MaxOccupancy != 2 {
		t.Errorf("bank 0 stats = %+v, want one overflow at two entries", b)
	}
	r := a.Load(2, 0, 4, 8*8, 4, m)
	if !r.Overflow {
		t.Error("tracked load should overflow too")
	}
	// Existing entries still work.
	if res := a.Store(2, 0, 4, 0, 4, 2); res.Overflow {
		t.Error("a store to a resident chunk overflowed")
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
	for i, b := range []byte("abcdef") {
		m.SetByte(0x100+uint32(i), b)
	}
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
		if !bytes.Equal(memBytes(t, backing), memBytes(t, oracle)) {
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
	if s := a.Stats(); s.Overflows != 0 || s.Allocs != 0 || s.StoreForwards != 0 || s.MaxOccupancy != 0 || live(a) != 0 {
		t.Errorf("absent ARB counted something: %+v", s)
	}
}

// The reference model is the ARB as it was before its bank index and
// stage bitmasks: a scan of the bank for the chunk, a loop over every unit
// for each byte (Load, View) and over every pair of units for each byte
// (Store), kept verbatim. It runs on an ARB of its own, sharing the
// allocation, touch-list, Commit, ClearUnit and State code, so
// TestARBMatchesReference judges the index and the three bitmask
// identities against the loops they replaced.
type refARB struct{ *ARB }

func (a refARB) find(chunk uint32) *entry {
	for _, e := range a.banks[a.bankOf(chunk)].index {
		if e != nil && e.chunk == chunk {
			return e
		}
	}
	return nil
}

func (a refARB) alloc(chunk uint32) (*entry, bool) {
	if e := a.find(chunk); e != nil {
		return e, true
	}
	return a.ARB.alloc(chunk)
}

func (a refARB) Load(unit, head, active int, addr uint32, size int, backing *mem.Memory) LoadResult {
	chunk := addr / ChunkBytes
	off := int(addr % ChunkBytes)
	du := a.dist(unit, head)

	e := a.find(chunk)
	needTrack := du > 0 // head loads need no load bits
	if e == nil && needTrack {
		var ok bool
		e, ok = a.alloc(chunk)
		if !ok {
			return LoadResult{Overflow: true}
		}
	}
	if e == nil {
		// A head load of a chunk nobody has touched: memory has every byte.
		a.LoadsTracked++
		return LoadResult{Value: backing.ReadN(addr, size)}
	}

	var val uint64
	for i := 0; i < size; i++ {
		b := off + i
		byteVal := backing.Byte(addr + uint32(i))
		supplier, bestDist := -1, -1
		for u := 0; u < a.NumUnits; u++ {
			if e.stores[b]&(1<<uint(u)) == 0 {
				continue
			}
			d := a.dist(u, head)
			if d >= active || d > du {
				continue
			}
			if d > bestDist {
				bestDist, supplier = d, u
			}
		}
		if supplier >= 0 {
			byteVal = e.data[supplier][b]
			a.StoreForwards++
		}
		if needTrack && supplier != unit {
			e.loads[b] |= 1 << uint(unit)
			a.touch(e, unit)
		}
		val = val<<8 | uint64(byteVal)
	}
	a.LoadsTracked++
	return LoadResult{Value: val}
}

func (a refARB) Store(unit, head, active int, addr uint32, size int, value uint64) StoreResult {
	chunk := addr / ChunkBytes
	off := int(addr % ChunkBytes)
	du := a.dist(unit, head)

	e, ok := a.alloc(chunk)
	if !ok {
		return StoreResult{Violator: -1, Overflow: true}
	}

	a.touch(e, unit)
	violator := -1
	violDist := a.NumUnits + 1
	for i := size - 1; i >= 0; i-- {
		b := off + i
		e.data[unit][b] = byte(value)
		value >>= 8
		e.stores[b] |= 1 << uint(unit)

		// Violation scan: a later unit w that loaded byte b from a stage
		// at or before `unit` (no intervening store between unit and w)
		// read a value this store supersedes.
		for w := 0; w < a.NumUnits; w++ {
			dw := a.dist(w, head)
			if dw <= du || dw >= active {
				continue
			}
			if e.loads[b]&(1<<uint(w)) == 0 {
				continue
			}
			intervening := false
			for x := 0; x < a.NumUnits; x++ {
				dx := a.dist(x, head)
				if dx > du && dx < dw && e.stores[b]&(1<<uint(x)) != 0 {
					intervening = true
					break
				}
			}
			if !intervening && dw < violDist {
				violDist, violator = dw, w
			}
		}
	}
	if violator >= 0 {
		a.Violations++
		a.bankStats[a.bankOf(chunk)].Violations++
	}
	a.StoresTracked++
	return StoreResult{Violator: violator}
}

// viewByte is View.Byte.
func (a refARB) viewByte(unit, head, active int, addr uint32, backing *mem.Memory) byte {
	chunk := addr / ChunkBytes
	b := int(addr % ChunkBytes)
	if e := a.find(chunk); e != nil {
		du := a.dist(unit, head)
		best, supplier := -1, -1
		for u := 0; u < a.NumUnits; u++ {
			if e.stores[b]&(1<<uint(u)) == 0 {
				continue
			}
			d := a.dist(u, head)
			if d >= active || d > du {
				continue
			}
			if d > best {
				best, supplier = d, u
			}
		}
		if supplier >= 0 {
			return e.data[supplier][b]
		}
	}
	return backing.Byte(addr)
}

// live counts the entries resident in every bank.
func live(a *ARB) (n int) {
	for _, b := range a.banks {
		for _, e := range b.index {
			if e != nil {
				n++
			}
		}
	}
	return n
}

// TestARBMatchesReference drives the ARB and the reference model with the
// same random stream of loads, stores, speculative-view reads, squashes
// (ClearUnit) and retires (Commit), at every head and every active count,
// with accesses of 1, 2, 4 and 8 bytes at every offset inside a chunk, and
// requires the same values, violators, overflows, counters and snapshot
// bytes throughout. Unit counts that are not powers of two exercise the
// stage rotation (and modulo banking) and 32 the full word; one- and
// two-entry banks overflow, and 256-entry banks grow their index and shift
// entries back on removal. Halfway through each stream the ARB under test
// is replaced by a snapshot round trip of itself.
func TestARBMatchesReference(t *testing.T) {
	for _, units := range []int{1, 2, 3, 5, 8, 16, 32} {
		for _, entries := range []int{0, 1, 2, 256} {
			for _, policy := range []OverflowPolicy{PolicyStall, PolicySquash} {
				t.Run(fmt.Sprintf("units=%d/entries=%d/%v", units, entries, policy), func(t *testing.T) {
					matchReference(t, units, entries, policy)
				})
			}
		}
	}
}

func matchReference(t *testing.T, units, entries int, policy OverflowPolicy) {
	banks := 2 * units
	if units == 1 {
		banks = 1
	}
	r := rand.New(rand.NewSource(int64(1000*units + 2*entries + int(policy))))
	got, ref := New(units, banks, entries, policy), refARB{New(units, banks, entries, policy)}
	gotMem, refMem := mem.NewMemory(), mem.NewMemory()
	const base = 0x10000000
	for i := uint32(0); i < uint32(64*banks); i++ {
		w := r.Uint32()
		gotMem.WriteWord(base+4*i, w)
		refMem.WriteWord(base+4*i, w)
	}
	save := func(a *ARB) []byte {
		data, err := snapshot.Save(snapshot.KindMultiscalar, 0, a.State)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	const perPair = 12
	total, n := units*(units+1)*perPair, 0
	for head := 0; head < units; head++ {
		for active := 0; active <= units; active++ {
			for k := 0; k < perPair; k, n = k+1, n+1 {
				if n == total/2 {
					a := New(units, banks, entries, policy)
					if err := snapshot.Load(save(got), snapshot.KindMultiscalar, a.State); err != nil {
						t.Fatalf("round trip: %v", err)
					}
					got = a
				}
				unit := r.Intn(units)
				// Most accesses share a few chunks, so bytes collide; the
				// rest spread over enough chunks to grow a bank's index.
				chunks := 3 * banks
				if r.Intn(4) == 0 {
					chunks = 40 * banks
				}
				size := 1 << r.Intn(4)
				addr := base + uint32(8*r.Intn(chunks)+r.Intn(ChunkBytes-size+1))
				what := fmt.Sprintf("op %d (head %d, active %d, unit %d, %d bytes at 0x%x)", n, head, active, unit, size, addr)
				switch op := r.Intn(100); {
				case op < 40:
					g, w := got.Load(unit, head, active, addr, size, gotMem), ref.Load(unit, head, active, addr, size, refMem)
					if g != w {
						t.Fatalf("%s: load %+v, reference %+v", what, g, w)
					}
				case op < 80:
					v := r.Uint64()
					g, w := got.Store(unit, head, active, addr, size, v), ref.Store(unit, head, active, addr, size, v)
					if g != w {
						t.Fatalf("%s: store %+v, reference %+v", what, g, w)
					}
				case op < 88:
					v := View{ARB: got, Unit: unit, Head: head, Active: active, Backing: gotMem}
					if g, w := v.Byte(addr), ref.viewByte(unit, head, active, addr, refMem); g != w {
						t.Fatalf("%s: view byte %#x, reference %#x", what, g, w)
					}
				case op < 94:
					got.ClearUnit(unit)
					ref.ClearUnit(unit)
				default:
					if g, w := got.Commit(unit, gotMem), ref.Commit(unit, refMem); g != w {
						t.Fatalf("%s: commit wrote %d chunks, reference %d", what, g, w)
					}
				}
			}
			if g, w := got.Stats(), ref.Stats(); !reflect.DeepEqual(g, w) {
				t.Fatalf("head %d, active %d: stats %+v, reference %+v", head, active, g, w)
			}
		}
		if !bytes.Equal(save(got), save(ref.ARB)) {
			t.Fatalf("head %d: snapshot bytes differ from the reference's", head)
		}
		if !bytes.Equal(memBytes(t, gotMem), memBytes(t, refMem)) {
			t.Fatalf("head %d: committed memory differs from the reference's", head)
		}
	}
}

// BenchmarkARB replays the stream of the benchmark ledger's arb.ops_per_s
// row (arbProbe in benchmark/probes.go, seed 1995) at 8 and 16 units: each
// unit in ring order from the head issues eight loads or stores (three in
// ten are stores) to 4096 words, a violating store squashes the violator
// and its successors, and the head commits and advances once per round.
// It reports operations — loads, stores, squashes, commits — per second.
func BenchmarkARB(b *testing.B) {
	for _, units := range []int{8, 16} {
		b.Run(fmt.Sprintf("units=%d", units), func(b *testing.B) {
			a, backing := New(units, 2*units, 256, PolicyStall), mem.NewMemory()
			rng := rand.New(rand.NewSource(1995))
			type op struct {
				addr  uint32
				store bool
			}
			ops := make([]op, 1<<15)
			for i := range ops {
				ops[i] = op{0x10000000 + uint32(rng.Intn(4096))*4, rng.Intn(10) < 3}
			}
			head, calls := 0, 0
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				for i := 0; i < len(ops); {
					for d := 0; d < units; d++ {
						u := (head + d) % units
						for k := 0; k < 8 && i < len(ops); k, i = k+1, i+1 {
							calls++
							if !ops[i].store {
								a.Load(u, head, units, ops[i].addr, 4, backing)
								continue
							}
							if r := a.Store(u, head, units, ops[i].addr, 4, uint64(i)); r.Violator >= 0 {
								for v := (r.Violator - head + units) % units; v < units; v++ {
									a.ClearUnit((head + v) % units)
									calls++
								}
							}
						}
					}
					a.Commit(head, backing)
					calls++
					head = (head + 1) % units
				}
			}
			b.ReportMetric(float64(calls)/b.Elapsed().Seconds(), "ops/s")
		})
	}
}
