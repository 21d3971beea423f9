package arb

import (
	"slices"
	"sort"

	"multiscalar/internal/snapshot"
)

// State walks the ARB: every live entry (banks in index order, entries
// within a bank saved in ascending chunk order so identical contents
// give identical bytes), then each unit's touch list as a chunk
// sequence, then the counters. Touch-list order matters — ClearUnit and
// Commit visit entries in list order, and release order decides which
// chunk stays resident when a bank refills — so the lists are walked
// explicitly instead of being rebuilt from the touched bits. Loading
// needs an ARB constructed with the same geometry; it rebuilds each
// bank's index from the restored entries and re-resolves the touch-list
// entries through it by chunk.
func (a *ARB) State(c *snapshot.Codec) {
	c.Tag("ARB ")
	entryBytes := 8 + 2*4*chunkBytes + a.NumUnits*chunkBytes // chunk, touched; load and store bits; a data row per unit
	if n := c.Len(a.NumBanks, 1<<10, 4); n != a.NumBanks {
		c.Failf("arb: %d banks, machine has %d", n, a.NumBanks)
	}
	if c.Err() != nil {
		return
	}
	for i := range a.banks {
		var ents []*entry
		if !c.Loading() {
			ents = slices.DeleteFunc(slices.Clone(a.banks[i].index), func(e *entry) bool { return e == nil })
			sort.Slice(ents, func(i, j int) bool { return ents[i].chunk < ents[j].chunk })
		}
		n := c.Len(len(ents), 1<<20, entryBytes)
		if c.Loading() {
			a.banks[i].reset()
			ents = make([]*entry, n)
		}
		for j := range ents {
			if c.Loading() {
				ents[j] = &entry{}
			}
			ent := ents[j]
			c.U32(&ent.chunk)
			c.U32(&ent.touched)
			c.U32s(ent.loads[:])
			c.U32s(ent.stores[:])
			for u := 0; u < a.NumUnits; u++ {
				c.Raw(ent.data[u][:])
			}
			if c.Err() != nil {
				return
			}
			if a.bankOf(ent.chunk) != i {
				c.Failf("arb: chunk 0x%x in bank %d", ent.chunk, i)
				return
			}
			if c.Loading() {
				a.banks[i].insert(ent)
			}
		}
	}
	if n := c.Len(a.NumUnits, MaxUnits, 4); n != a.NumUnits {
		c.Failf("arb: %d touch lists, machine has %d units", n, a.NumUnits)
	}
	if c.Err() != nil {
		return
	}
	for u := range a.touchLists {
		n := c.Len(len(a.touchLists[u]), 1<<20, 4)
		if c.Loading() {
			a.touchLists[u] = append(a.touchLists[u][:0], make([]*entry, n)...)
		}
		for j, ent := range a.touchLists[u] {
			var chunk uint32
			if !c.Loading() {
				chunk = ent.chunk
			}
			c.U32(&chunk)
			if c.Err() != nil {
				return
			}
			if c.Loading() {
				if ent = a.banks[a.bankOf(chunk)].find(chunk); ent == nil {
					c.Failf("arb: touch list for unit %d references absent chunk 0x%x", u, chunk)
					return
				}
				a.touchLists[u][j] = ent
			}
		}
	}
	c.U64(&a.Violations)
	c.U64(&a.Overflows)
	c.U64(&a.StoreForwards)
	c.U64(&a.LoadsTracked)
	c.U64(&a.StoresTracked)
	for i := range a.bankStats {
		bs := &a.bankStats[i]
		c.U64(&bs.Allocs)
		c.U64(&bs.Overflows)
		c.U64(&bs.Violations)
		c.Int(&bs.MaxOccupancy)
		if uint64(bs.MaxOccupancy) > uint64(a.EntriesPerBank) {
			c.Failf("arb: bank %d max occupancy %d exceeds capacity %d", i, bs.MaxOccupancy, a.EntriesPerBank)
			return
		}
	}
}
