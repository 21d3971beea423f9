package mem

import (
	"sort"

	"multiscalar/internal/snapshot"
)

// Snapshot sections for the memory hierarchy: each type's State method
// is the one list of its mutable run state, walked by save and restore
// alike. A Memory holds its private copy-on-write pages (the read-only
// image is rebuilt from the program by the machine constructor), a Cache
// its tags/valid bits/MSHRs and stats (its geometry comes from the
// Config), the Bus its busy timestamp.

// maxPages bounds the page count a snapshot may claim: the full
// 32-bit space holds 1<<20 pages of 4 KB.
const maxPages = 1 << 20

// State walks the memory's private pages. Saving visits them in
// ascending page order (deterministic bytes for identical contents);
// loading replaces them with the snapshot's. The read-only image is
// untouched: restoring into a Memory built from the same image
// reproduces the snapshotted contents exactly.
func (m *Memory) State(c *snapshot.Codec) {
	c.Tag("MEMP")
	var keys []uint32
	if !c.Loading() {
		keys = make([]uint32, 0, len(m.pages))
		for key := range m.pages {
			keys = append(keys, key)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	}
	n := c.Len(len(keys), maxPages, 4+pageSize)
	if c.Loading() {
		m.pages = make(map[uint32]*[pageSize]byte, n)
		m.lastKey, m.lastPage, m.lastRO = 0, nil, false
		keys = make([]uint32, n)
	}
	for i := range keys {
		p := m.pages[keys[i]] // saving: the page to write
		if c.Loading() {
			p = new([pageSize]byte)
		}
		c.U32(&keys[i])
		c.Raw(p[:])
		if c.Err() != nil {
			return
		}
		if c.Loading() {
			m.pages[keys[i]] = p
		}
	}
}

// State walks the cache's tag array, valid bits, in-flight MSHRs and
// statistics. The set count must match the constructed geometry.
func (c *Cache) State(s *snapshot.Codec) {
	s.Tag("CACH")
	if n := s.Len(c.sets, 1<<24, 5); n != c.sets {
		s.Failf("cache %s: %d sets, machine has %d", c.Name, n, c.sets)
	}
	if s.Err() != nil {
		return
	}
	for i := 0; i < c.sets; i++ {
		s.U32(&c.tags[i])
		s.Bool(&c.vld[i])
	}
	n := s.Len(len(c.mshrs), 1<<16, 12)
	if s.Loading() {
		c.mshrs = append(c.mshrs[:0], make([]mshr, n)...)
	}
	for i := range c.mshrs {
		s.U32(&c.mshrs[i].block)
		s.U64(&c.mshrs[i].readyAt)
	}
	s.U64(&c.Hits)
	s.U64(&c.Misses)
	s.U64(&c.Merges)
}

// State walks the bus occupancy and statistics.
func (b *Bus) State(c *snapshot.Codec) {
	c.Tag("BUS ")
	c.U64(&b.busyUntil)
	c.U64(&b.Requests)
	c.U64(&b.BusyCycles)
}

// State walks every bank plus the crossbar occupancy; the bank count
// must match.
func (d *BankedDCache) State(c *snapshot.Codec) {
	c.Tag("DBNK")
	const bankBytes = 8 + 36 // nextFree and a CACH section with no sets or MSHRs
	if n := c.Len(len(d.Banks), 1<<10, bankBytes); n != len(d.Banks) {
		c.Failf("dcache: %d banks, machine has %d", n, len(d.Banks))
	}
	if c.Err() != nil {
		return
	}
	for i, b := range d.Banks {
		c.U64(&d.nextFree[i])
		b.State(c)
	}
	c.U64(&d.Conflicts)
	c.U64(&d.Accesses)
}
