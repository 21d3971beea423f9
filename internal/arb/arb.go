// Package arb implements the Address Resolution Buffer (Section 2.3 of
// the paper; Franklin & Sohi's ARB). The ARB holds the speculative memory
// operations of all active tasks: stores live here (the data cache is
// never updated speculatively) and update the cache only when their task
// retires; loads record load bits so that a later store from a
// predecessor task to the same location is detected as a memory-order
// violation and triggers a squash.
//
// Granularity: entries cover 8-byte chunks with per-byte load and store
// tracking, so mixed byte/halfword/word/double traffic to nearby
// addresses never produces false dependences. Stage ordering follows the
// circular unit queue: distance from the head determines predecessor/
// successor relationships.
package arb

import (
	"fmt"
	"math/bits"

	"multiscalar/internal/mem"
	"multiscalar/internal/trace"
)

// MaxUnits bounds the number of processing units an ARB can track.
const MaxUnits = 32

// OverflowPolicy selects what happens when a bank runs out of entries.
type OverflowPolicy int

const (
	// PolicyStall makes non-head units wait until the head retires and
	// frees entries (the paper's "less drastic alternative").
	PolicyStall OverflowPolicy = iota
	// PolicySquash frees space by squashing the youngest tasks (the
	// paper's "simple solution" that guarantees forward progress).
	PolicySquash
)

func (p OverflowPolicy) String() string {
	if p == PolicySquash {
		return "squash"
	}
	return "stall"
}

const chunkBytes = 8

type entry struct {
	chunk   uint32             // address >> 3
	slot    int                // position in its bank's index
	touched uint32             // bit u set => entry is on unit u's touch list
	loads   [chunkBytes]uint32 // per byte: bit u set => unit u loaded it from elsewhere
	stores  [chunkBytes]uint32 // per byte: bit u set => unit u stored it
	data    [MaxUnits][8]byte  // per unit speculative store bytes
}

func (e *entry) empty() bool {
	for i := 0; i < chunkBytes; i++ {
		if e.loads[i] != 0 || e.stores[i] != 0 {
			return false
		}
	}
	return true
}

// ARB is the address resolution buffer, partitioned into banks that match
// the data-cache banks.
type ARB struct {
	NumUnits       int
	NumBanks       int
	EntriesPerBank int
	Policy         OverflowPolicy

	// Sink, when non-nil, receives allocation, overflow and violation
	// events. The ARB's operations carry no cycle themselves, so the
	// owning machine keeps Now at the current simulation cycle whenever a
	// sink is attached.
	Sink trace.Sink
	Now  uint64

	banks []arbBank
	all   uint32 // one bit per unit
	// bankMask is NumBanks-1 when NumBanks is a power of two (the usual
	// cache-matched geometry), letting bankOf mask instead of divide on
	// the per-memory-op path; -1 selects the modulo fallback.
	bankMask int

	// touchLists[u] holds the entries unit u has bits in, so ClearUnit
	// and Commit visit only those instead of sweeping every bank — the
	// squash and retire paths are on the simulator's critical loop.
	touchLists [][]*entry

	// Stats
	Violations    uint64
	Overflows     uint64
	StoreForwards uint64 // load bytes supplied by a buffered store
	LoadsTracked  uint64
	StoresTracked uint64

	// bankStats[i] are bank i's lifetime counters, maintained inline on
	// the alloc/store paths so they are available without a trace sink
	// attached (Stats copies them out).
	bankStats []BankStats
}

// BankStats are one ARB bank's lifetime counters.
type BankStats struct {
	Allocs       uint64 // entries allocated (first touch of a chunk)
	Overflows    uint64 // allocation attempts refused for lack of a free entry
	Violations   uint64 // memory-order violations detected on this bank's chunks
	MaxOccupancy int    // peak entries simultaneously resident
}

// Stats is the ARB's counter surface: the aggregate totals plus the
// per-bank breakdown. Banks is a copy — callers may keep it.
type Stats struct {
	Banks []BankStats

	Allocs        uint64
	Overflows     uint64
	Violations    uint64
	StoreForwards uint64
	LoadsTracked  uint64
	StoresTracked uint64

	// MaxOccupancy is the peak occupancy of any single bank — the
	// capacity headroom figure the stress fuzzer reports against
	// EntriesPerBank.
	MaxOccupancy int
}

// Stats snapshots the ARB's counters: aggregates plus the per-bank
// breakdown the litmus stressor and mstrace report without needing a
// trace sink on the run.
func (a *ARB) Stats() Stats {
	s := Stats{
		Banks:         append([]BankStats(nil), a.bankStats...),
		Violations:    a.Violations,
		Overflows:     a.Overflows,
		StoreForwards: a.StoreForwards,
		LoadsTracked:  a.LoadsTracked,
		StoresTracked: a.StoresTracked,
	}
	for _, b := range a.bankStats {
		s.Allocs += b.Allocs
		if b.MaxOccupancy > s.MaxOccupancy {
			s.MaxOccupancy = b.MaxOccupancy
		}
	}
	return s
}

// New builds an ARB. numBanks and entriesPerBank mirror the data-cache
// banking (paper: 256 entries per bank). Zero entries is no ARB at all —
// what a machine whose one task has nothing to disambiguate against
// builds: loads read memory, head stores are written through by the
// caller exactly as on overflow, and no overflow is counted or traced.
func New(numUnits, numBanks, entriesPerBank int, policy OverflowPolicy) *ARB {
	if numUnits > MaxUnits {
		panic(fmt.Sprintf("arb: %d units exceeds MaxUnits", numUnits))
	}
	a := &ARB{
		NumUnits:       numUnits,
		NumBanks:       numBanks,
		EntriesPerBank: entriesPerBank,
		Policy:         policy,
		all:            uint32(uint64(1)<<numUnits - 1),
	}
	a.banks = make([]arbBank, numBanks)
	a.bankMask = -1
	if numBanks > 0 && numBanks&(numBanks-1) == 0 {
		a.bankMask = numBanks - 1
	}
	a.touchLists = make([][]*entry, numUnits)
	a.bankStats = make([]BankStats, numBanks)
	return a
}

// arbBank indexes one bank's live entries by chunk — software's form of
// the hardware comparing every row's address at once (docs/perf.md,
// "Inside the ARB"): a power-of-two table at most half full, probed
// linearly from a hash, rebuilt by the State walk on load and never
// serialized. Released entries are pooled for reuse; that is safe because
// release only fires on an empty entry as it leaves the last touch list
// that references it.
type arbBank struct {
	index []*entry
	shift uint // 32 - log2(len(index))
	n     int  // live entries
	pool  []*entry
}

func (b *arbBank) home(chunk uint32) int { return int(chunk * 0x9e3779b1 >> b.shift) }

func (b *arbBank) find(chunk uint32) *entry {
	if b.n == 0 {
		return nil
	}
	for i := b.home(chunk); ; i = (i + 1) & (len(b.index) - 1) {
		if e := b.index[i]; e == nil || e.chunk == chunk {
			return e
		}
	}
}

func (b *arbBank) insert(e *entry) {
	if 2*(b.n+1) > len(b.index) {
		old := b.index
		b.index = make([]*entry, max(16, 2*len(old)))
		b.shift = 32 - uint(bits.TrailingZeros(uint(len(b.index))))
		b.n = 0
		for _, o := range old {
			if o != nil {
				b.insert(o)
			}
		}
	}
	i := b.home(e.chunk)
	for b.index[i] != nil {
		i = (i + 1) & (len(b.index) - 1)
	}
	b.index[i], e.slot = e, i
	b.n++
}

// take returns a zeroed entry for chunk, reusing a pooled one if
// available, and inserts it.
func (b *arbBank) take(chunk uint32) *entry {
	var e *entry
	if n := len(b.pool); n > 0 {
		e = b.pool[n-1]
		b.pool = b.pool[:n-1]
		*e = entry{chunk: chunk}
	} else {
		e = &entry{chunk: chunk}
	}
	b.insert(e)
	return e
}

// remove drops e from its slot (identity-checked) and pools it; each
// entry behind the hole whose probe path crosses it moves in.
func (b *arbBank) remove(e *entry) {
	i, mask := e.slot, len(b.index)-1
	if b.index[i] != e {
		return
	}
	for j := (i + 1) & mask; b.index[j] != nil; j = (j + 1) & mask {
		if f := b.index[j]; (j-b.home(f.chunk))&mask >= (j-i)&mask {
			b.index[i], f.slot, i = f, i, j
		}
	}
	b.index[i] = nil
	b.n--
	b.pool = append(b.pool, e)
}

// reset empties the bank, keeping the allocated entries pooled.
func (b *arbBank) reset() {
	for i, e := range b.index {
		if e != nil {
			b.pool = append(b.pool, e)
			b.index[i] = nil
		}
	}
	b.n = 0
}

// touch puts e on unit's touch list (once). Callers must only touch
// entries they are about to set bits in, so that an entry on a unit's
// list always carries that unit's bits until ClearUnit/Commit removes
// both together.
func (a *ARB) touch(e *entry, unit int) {
	bit := uint32(1) << uint(unit)
	if e.touched&bit == 0 {
		e.touched |= bit
		a.touchLists[unit] = append(a.touchLists[unit], e)
	}
}

func (a *ARB) bankOf(chunk uint32) int {
	if a.bankMask >= 0 {
		return int(chunk) & a.bankMask
	}
	return int(chunk) % a.NumBanks
}

// dist is the stage distance of unit u from the head in circular order
// (a comparison, not a division: every memory operation asks).
func (a *ARB) dist(u, head int) int {
	if u < head {
		return u - head + a.NumUnits
	}
	return u - head
}

// rot turns a per-byte load or store word into stage order: bit d is the
// unit d stages after the head. Over it, the supplier of a load at stage
// du is the highest store bit at <= du and < active, and the violator of
// a store at du is the lowest load bit in (du, first store bit above du]
// and < active (docs/perf.md, "Inside the ARB").
func (a *ARB) rot(x uint32, head int) uint32 {
	return (x>>uint(head) | x<<uint(a.NumUnits-head)) & a.all
}

// stage returns the unit d stages after the head.
func (a *ARB) stage(head, d int) int {
	if u := head + d; u < a.NumUnits {
		return u
	}
	return head + d - a.NumUnits
}

// stages returns the stage sets a unit at distance du sees: visible, the
// stages at or before it among the active ones, and later, the active
// ones after it.
func stages(du, active int) (visible, later uint32) {
	upTo, act := uint32(2)<<uint(du)-1, uint32(1)<<uint(active)-1
	return upTo & act, act &^ upTo
}

// supplier returns the unit whose buffered store a byte with the given
// store bits comes from for a reader seeing the visible stages, -1 when
// it comes from memory.
func (a *ARB) supplier(stores uint32, head int, visible uint32) int {
	if s := a.rot(stores, head) & visible; s != 0 {
		return a.stage(head, 31-bits.LeadingZeros32(s))
	}
	return -1
}

// find returns the entry for a chunk, or nil.
func (a *ARB) find(chunk uint32) *entry {
	return a.banks[a.bankOf(chunk)].find(chunk)
}

// alloc returns the entry for a chunk, allocating it if needed. ok=false
// means the bank is full (the caller applies the overflow policy).
func (a *ARB) alloc(chunk uint32) (*entry, bool) {
	bi := a.bankOf(chunk)
	bank := &a.banks[bi]
	if e := bank.find(chunk); e != nil {
		return e, true
	}
	if bank.n >= a.EntriesPerBank {
		// An ARB of zero entries is absent, not full: nothing overflowed.
		if a.EntriesPerBank > 0 {
			a.Overflows++
			a.bankStats[bi].Overflows++
			if a.Sink != nil {
				a.Sink.Emit(trace.Event{Cycle: a.Now, Kind: trace.KARBOverflow, Unit: -1, Task: -1, Arg: chunk * chunkBytes})
			}
		}
		return nil, false
	}
	e := bank.take(chunk)
	a.bankStats[bi].Allocs++
	if occ := bank.n; occ > a.bankStats[bi].MaxOccupancy {
		a.bankStats[bi].MaxOccupancy = occ
	}
	if a.Sink != nil {
		a.Sink.Emit(trace.Event{Cycle: a.Now, Kind: trace.KARBAlloc, Unit: -1, Task: -1, Arg: chunk * chunkBytes})
	}
	return e, true
}

// LoadResult is the outcome of an ARB load.
type LoadResult struct {
	Value    uint64 // raw big-endian value, low `size` bytes
	Overflow bool   // bank full and the load-bit could not be recorded
}

// Load performs a speculative load for `unit` (with the given head and
// active-unit count): each byte comes from the nearest predecessor (or
// own) buffered store, falling back to backing memory. Load bits are
// recorded for non-head units so future predecessor stores can detect a
// violation. Aligned accesses never straddle a chunk.
func (a *ARB) Load(unit, head, active int, addr uint32, size int, backing *mem.Memory) LoadResult {
	chunk := addr / chunkBytes
	off := int(addr % chunkBytes)
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
	a.LoadsTracked++
	val := backing.ReadN(addr, size)
	if e == nil {
		return LoadResult{Value: val} // a head load of a chunk nobody has touched
	}
	visible, _ := stages(du, active)
	tracked := false
	for i := 0; i < size; i++ {
		b := off + i
		if s := a.supplier(e.stores[b], head, visible); s >= 0 {
			shift := 8 * uint(size-1-i)
			val = val&^(0xff<<shift) | uint64(e.data[s][b])<<shift
			a.StoreForwards++
			if s == unit {
				continue // its own store: nothing to track
			}
		}
		if needTrack {
			e.loads[b] |= 1 << uint(unit)
			tracked = true
		}
	}
	if tracked {
		a.touch(e, unit)
	}
	return LoadResult{Value: val}
}

// StoreResult is the outcome of an ARB store.
type StoreResult struct {
	// Violator is the distance-earliest successor unit whose earlier load
	// of one of these bytes is now stale; -1 if none. The core squashes
	// that unit and all its successors.
	Violator int
	// Overflow means the bank was full and the store could not be
	// buffered; for the head unit the caller may write memory directly
	// instead (head stores are non-speculative).
	Overflow bool
}

// Store buffers a speculative store and checks for memory-order
// violations among the active successor units.
func (a *ARB) Store(unit, head, active int, addr uint32, size int, value uint64) StoreResult {
	chunk := addr / chunkBytes
	off := int(addr % chunkBytes)
	du := a.dist(unit, head)

	e, ok := a.alloc(chunk)
	if !ok {
		return StoreResult{Violator: -1, Overflow: true}
	}

	a.touch(e, unit)
	_, later := stages(du, active)
	violDist := MaxUnits
	for i := size - 1; i >= 0; i-- {
		b := off + i
		e.data[unit][b] = byte(value)
		value >>= 8
		e.stores[b] |= 1 << uint(unit)
		l := a.rot(e.loads[b], head) & later
		if s := a.rot(e.stores[b], head) & later; s != 0 {
			l &= s ^ (s - 1) // up to and including the first later store
		}
		if l != 0 {
			violDist = min(violDist, bits.TrailingZeros32(l))
		}
	}
	violator := -1
	if violDist < MaxUnits {
		violator = a.stage(head, violDist)
		a.Violations++
		a.bankStats[a.bankOf(chunk)].Violations++
		if a.Sink != nil {
			a.Sink.Emit(trace.Event{Cycle: a.Now, Kind: trace.KARBViolation, Unit: int8(violator), Task: -1, Arg: addr})
		}
	}
	a.StoresTracked++
	return StoreResult{Violator: violator}
}

// ClearUnit erases all of a squashed unit's load bits, store bits, and
// buffered data, freeing entries that become empty. Only the entries on
// the unit's touch list are visited.
func (a *ARB) ClearUnit(unit int) {
	bit := uint32(1) << uint(unit)
	list := a.touchLists[unit]
	for _, e := range list {
		for b := 0; b < chunkBytes; b++ {
			e.loads[b] &^= bit
			e.stores[b] &^= bit
		}
		e.data[unit] = [8]byte{}
		e.touched &^= bit
		a.release(e)
	}
	a.touchLists[unit] = list[:0]
}

// Commit drains the retiring head unit's buffered stores into backing
// memory and clears its bits. It returns the number of chunks written
// (the data-cache update traffic at retire).
func (a *ARB) Commit(unit int, backing *mem.Memory) int {
	bit := uint32(1) << uint(unit)
	written := 0
	list := a.touchLists[unit]
	for _, e := range list {
		wrote := false
		for b := 0; b < chunkBytes; b++ {
			if e.stores[b]&bit != 0 {
				backing.SetByte(e.chunk*chunkBytes+uint32(b), e.data[unit][b])
				e.stores[b] &^= bit
				wrote = true
			}
			e.loads[b] &^= bit
		}
		if wrote {
			written++
		}
		e.data[unit] = [8]byte{}
		e.touched &^= bit
		a.release(e)
	}
	a.touchLists[unit] = list[:0]
	return written
}

// release frees an entry's bank slot once no unit holds bits in it. The
// identity check guards against a stale list reference to an entry whose
// chunk slot has since been reallocated.
func (a *ARB) release(e *entry) {
	if !e.empty() {
		return
	}
	a.banks[a.bankOf(e.chunk)].remove(e)
}

// View reads memory as `unit` would see it (ARB first, then backing) —
// used by syscalls that read buffers written earlier in the same task.
type View struct {
	ARB     *ARB
	Unit    int
	Head    int
	Active  int
	Backing *mem.Memory
}

// Byte implements interp.MemReader over the speculative view. It does not
// record load bits (syscalls execute at the head, non-speculatively).
func (v *View) Byte(addr uint32) byte {
	a, b := v.ARB, addr%chunkBytes
	if e := a.find(addr / chunkBytes); e != nil {
		visible, _ := stages(a.dist(v.Unit, v.Head), v.Active)
		if s := a.supplier(e.stores[b], v.Head, visible); s >= 0 {
			return e.data[s][b]
		}
	}
	return v.Backing.Byte(addr)
}

// BankIndex returns the bank an address maps to — the pow2 mask or
// modulo mapping Load/Store use internally, exported so squash events
// and litmus repro artifacts can name the conflicting bank.
func (a *ARB) BankIndex(addr uint32) int {
	return a.bankOf(addr / chunkBytes)
}
