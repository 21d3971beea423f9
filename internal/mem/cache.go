package mem

import (
	"math/bits"

	"multiscalar/internal/trace"
)

// Cache is a direct-mapped, timing-only cache: data always lives in the
// backing Memory (or, for speculative state, in the ARB); the cache tracks
// tags to decide hit/miss latency, and models non-blocking misses with a
// small set of outstanding-fetch registers (MSHRs) that merge requests to
// a block already in flight.
//
// Access returns the completion cycle synchronously — there is no event
// queue and nothing "arrives later". The whole memory system shares this
// timestamp-latching design (see Bus), and the timing loops in
// internal/core rely on it: because every future memory effect is a
// timestamp already held in unit state, the wakeup scheduler can prove a
// stall window unchanging and skip it (docs/perf.md).
type Cache struct {
	Name       string
	SizeBytes  int
	BlockBytes int
	HitLatency int

	// Sink, when non-nil, receives a SinkKind event (stamped with the
	// requesting cycle, Unit=SinkID, Arg=address) for every miss. The
	// machine that owns the cache wires these from its trace sink.
	Sink     trace.Sink
	SinkKind trace.Kind
	SinkID   int8

	bus  *Bus
	sets int
	tags []uint32
	vld  []bool

	// stride divides block numbers before set indexing: a bank that only
	// sees every Nth block must spread those blocks over all its sets.
	stride uint32

	// Shift/mask forms of the index arithmetic, valid when block size,
	// set count and stride are all powers of two (the common geometry):
	// index is on the per-access path and hardware division is slow.
	pow2                             bool
	blockShift, strideShift, setBits int
	setMask                          uint32

	mshrs []mshr // outstanding block fetches
	nmshr int

	// Stats
	Hits, Misses, Merges uint64
}

type mshr struct {
	block   uint32
	readyAt uint64
}

// NewCache builds a direct-mapped cache backed by bus for miss traffic.
func NewCache(name string, sizeBytes, blockBytes, hitLatency, numMSHRs int, bus *Bus) *Cache {
	sets := sizeBytes / blockBytes
	c := &Cache{
		Name:       name,
		SizeBytes:  sizeBytes,
		BlockBytes: blockBytes,
		HitLatency: hitLatency,
		bus:        bus,
		sets:       sets,
		tags:       make([]uint32, sets),
		vld:        make([]bool, sets),
		nmshr:      numMSHRs,
		stride:     1,
	}
	c.precompute()
	return c
}

func log2OfPow2(n int) (int, bool) {
	if n <= 0 || n&(n-1) != 0 {
		return 0, false
	}
	return bits.TrailingZeros(uint(n)), true
}

func (c *Cache) precompute() {
	b, okB := log2OfPow2(c.BlockBytes)
	s, okS := log2OfPow2(c.sets)
	t, okT := log2OfPow2(int(c.stride))
	c.pow2 = okB && okS && okT
	if c.pow2 {
		c.blockShift, c.strideShift, c.setBits = b, t, s
		c.setMask = uint32(c.sets - 1)
	}
}

// SetStride declares that this cache only sees every strideth block
// (bank interleaving), so set indexing divides the stride out first.
func (c *Cache) SetStride(stride int) {
	if stride > 0 {
		c.stride = uint32(stride)
	}
	c.precompute()
}

func (c *Cache) index(addr uint32) (set int, tag uint32) {
	if c.pow2 {
		block := addr >> c.blockShift >> c.strideShift
		return int(block & c.setMask), block >> c.setBits
	}
	block := addr / uint32(c.BlockBytes) / c.stride
	return int(block) % c.sets, block / uint32(c.sets)
}

// block is addr's block number, the MSHRs' key.
func (c *Cache) block(addr uint32) uint32 {
	if c.pow2 {
		return addr >> c.blockShift
	}
	return addr / uint32(c.BlockBytes)
}

// Access performs a load or store at cycle now and returns the cycle the
// access completes. Stores allocate on miss (write-allocate, write-back;
// eviction write-back cost is absorbed by a write buffer and not modeled,
// matching the paper's level of detail).
func (c *Cache) Access(now uint64, addr uint32, write bool) (done uint64) {
	set, tag := c.index(addr)
	block := c.block(addr)
	if c.vld[set] && c.tags[set] == tag {
		// Tag present — but if the block is still being filled, the data
		// arrives with the fill, not at the hit latency.
		for i := range c.mshrs {
			if c.mshrs[i].block == block && c.mshrs[i].readyAt > now {
				c.Merges++
				return c.mshrs[i].readyAt + uint64(c.HitLatency)
			}
		}
		c.Hits++
		return now + uint64(c.HitLatency)
	}
	// Merge with an in-flight fetch of the same block.
	live := c.mshrs[:0]
	var merged *mshr
	for i := range c.mshrs {
		if c.mshrs[i].readyAt > now {
			live = append(live, c.mshrs[i])
			if c.mshrs[i].block == block {
				merged = &live[len(live)-1]
			}
		}
	}
	c.mshrs = live
	if merged != nil {
		c.Merges++
		return merged.readyAt + uint64(c.HitLatency)
	}

	c.Misses++
	if c.Sink != nil {
		c.Sink.Emit(trace.Event{Cycle: now, Kind: c.SinkKind, Unit: c.SinkID, Task: -1, Arg: addr})
	}
	start := now
	if len(c.mshrs) >= c.nmshr {
		// All MSHRs busy: wait for the earliest to free.
		earliest := c.mshrs[0].readyAt
		for _, m := range c.mshrs[1:] {
			if m.readyAt < earliest {
				earliest = m.readyAt
			}
		}
		start = earliest
		live = c.mshrs[:0]
		for _, m := range c.mshrs {
			if m.readyAt > start {
				live = append(live, m)
			}
		}
		c.mshrs = live
	}
	fill := c.bus.Access(start+uint64(c.HitLatency), c.BlockBytes/4)
	c.mshrs = append(c.mshrs, mshr{block: block, readyAt: fill})
	c.vld[set], c.tags[set] = true, tag
	return fill + uint64(c.HitLatency)
}

// Touch installs addr's tag without modeling timing: no bus traffic,
// no MSHR, no statistics. The sampled-simulation engine uses it to
// keep cache contents warm during functional fast-forward, so a
// detailed window restored from warm state starts with the tag array a
// full detailed run would have at that point.
func (c *Cache) Touch(addr uint32) {
	set, tag := c.index(addr)
	c.vld[set], c.tags[set] = true, tag
}

// LastBlock is a one-entry memo in front of Touch for a caller that
// touches long runs of addresses inside one block (functional warming
// fetches every instruction). Touch is idempotent per block, so as long
// as nothing else writes the cache's tags between two touches, skipping
// the second of two in the same block leaves the tag array exactly as it
// was. A LastBlock with only BlockBytes set remembers no block.
type LastBlock struct {
	BlockBytes uint32 // the cache's block size; any size, not only a power of two
	base, span uint32 // the block last entered is [base, base+span)
}

// Moved reports whether addr lies outside the block remembered, and if
// so remembers addr's block.
func (b *LastBlock) Moved(addr uint32) bool {
	if addr-b.base < b.span {
		return false
	}
	b.base, b.span = addr-addr%b.BlockBytes, b.BlockBytes
	return true
}

// Enter is Moved for a straight-line run of instruction addresses
// [first, last]: it calls touch once for each block the run enters,
// other than the block remembered, in ascending order, and remembers
// last's block. The blocks come out as Moved filters them when called
// for every instruction of the run (a block is at least one instruction
// wide); a run that stays in the remembered block costs two compares.
func (b *LastBlock) Enter(first, last uint32, touch func(addr uint32)) {
	if first-b.base < b.span && last-b.base < b.span {
		return
	}
	b.enter(first, last, touch)
}

func (b *LastBlock) enter(first, last uint32, touch func(addr uint32)) {
	var base uint32
	if first-b.base < b.span {
		base = b.base + b.span // the run leaves the remembered block
	} else {
		base = first - first%b.BlockBytes
	}
	for ; last-base >= b.BlockBytes; base += b.BlockBytes {
		touch(base)
	}
	touch(base)
	b.base, b.span = base, b.BlockBytes
}

// AdoptTags copies another cache's tag array into this one. Both must
// come from NewCache with the same geometry, as a machine's caches and
// the warm state built for it from one Config do. The multiscalar
// machine's per-unit icaches all see the same fetch stream during
// functional warming, so one warmed tag array is captured and adopted by
// every unit on warm-state injection.
func (c *Cache) AdoptTags(src *Cache) {
	copy(c.tags, src.tags)
	copy(c.vld, src.vld)
}
