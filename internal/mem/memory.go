// Package mem provides the memory hierarchy: the backing store shared by
// all simulators plus the timing models from Section 5.1 of the paper —
// the split-transaction memory bus, direct-mapped caches, and the
// interleaved data banks behind a crossbar.
package mem

import "encoding/binary"

const pageBits = 12
const pageSize = 1 << pageBits

// Memory is a sparse, paged, big-endian, byte-addressable store over the
// full 32-bit address space. The zero value is ready to use.
//
// A Memory may be seeded from an immutable Image (NewMemoryFromImage):
// image pages are shared read-only between every Memory built from the
// image and copied into private pages on first write, so constructing a
// machine over a large data segment costs O(1) instead of one copy of
// the segment, and the image itself points into the bytes it was built
// from (ImageOf). Sharing the image across concurrently running
// Memories is safe — image pages are never written.
//
// Memory is not safe for concurrent use: even reads fill its page TLB.
// Every simulation run owns its Memory, so this only matters if one
// instance is shared across goroutines.
type Memory struct {
	pages map[uint32]*[pageSize]byte
	ro    *Image // copy-on-write base image; nil when unseeded

	// tlb caches page lookups, so a hit costs one compare instead of a
	// map lookup (two for an image page not yet copied). The page map
	// stays the only source of truth: page fills entries, and State
	// clears them when it replaces the map.
	tlb [tlbSize]tlbEntry
}

// tlbSize is the direct-mapped page TLB's entry count, a power of two.
// A program works in a few regions at once (data, heap, stack), which a
// one-entry cache thrashes between. At 64 entries the suite's functional
// runs miss on at most 2% of their loads and stores (compress), most
// under 0.5%, and 128 or 256 entries ran the narrow oracles no faster;
// each entry is 16 bytes.
const tlbSize = 64

// tlbValid is set in every filled entry's tag, above the 20-bit page
// number, so the zero entry never hits.
const tlbValid = 1 << (32 - pageBits)

// tlbEntry maps the page whose number is tag&^tlbValid. ro marks an
// image page, which must be promoted (page with create) before a write.
type tlbEntry struct {
	tag  uint32
	ro   bool
	page *[pageSize]byte
}

// tlbHit returns addr's TLB entry if it maps addr's page, else nil.
func (m *Memory) tlbHit(addr uint32) *tlbEntry {
	e := &m.tlb[addr>>pageBits%tlbSize]
	if e.tag != addr>>pageBits|tlbValid {
		return nil
	}
	return e
}

// Image is an immutable page set used to seed Memories copy-on-write.
// Build one with ImageOf. Its full pages are the bytes it was built
// from, not a copy: nothing may write those bytes while the image
// lives, and no Memory does — page promotes an image page to a private
// copy before a write, WriteWordHit declines an image page, and State
// loads into fresh pages.
type Image struct {
	pages map[uint32]*[pageSize]byte
}

// ImageOf returns the image of data placed at base, which must be
// page-aligned. Each full page of data is aliased, not copied; only a
// final partial page is copied, into a zero-padded page.
func ImageOf(base uint32, data []byte) *Image {
	if base%pageSize != 0 {
		panic("mem: ImageOf base is not page-aligned")
	}
	img := &Image{pages: make(map[uint32]*[pageSize]byte, (len(data)+pageSize-1)/pageSize)}
	for off := 0; off < len(data); off += pageSize {
		page := data[off:]
		if len(page) < pageSize {
			page = append(make([]byte, 0, pageSize), page...)[:pageSize]
		}
		img.pages[(base+uint32(off))>>pageBits] = (*[pageSize]byte)(page)
	}
	return img
}

// NewMemory returns an empty memory.
func NewMemory() *Memory {
	return &Memory{pages: make(map[uint32]*[pageSize]byte)}
}

// NewMemoryFromImage returns a memory whose initial contents are the
// image. The image is shared, not copied; writes go to private pages.
func NewMemoryFromImage(img *Image) *Memory {
	return &Memory{pages: make(map[uint32]*[pageSize]byte), ro: img}
}

// Clone returns a copy of m that shares its read-only image and copies
// its private pages, so neither copy sees the other's writes.
func (m *Memory) Clone() *Memory {
	c := &Memory{pages: make(map[uint32]*[pageSize]byte, len(m.pages)), ro: m.ro}
	for key, p := range m.pages {
		page := *p
		c.pages[key] = &page
	}
	return c
}

func (m *Memory) page(addr uint32, create bool) *[pageSize]byte {
	if e := m.tlbHit(addr); e != nil && !(create && e.ro) {
		return e.page
	}
	key := addr >> pageBits
	if m.pages == nil {
		if !create && m.ro == nil {
			return nil
		}
		m.pages = make(map[uint32]*[pageSize]byte)
	}
	e := &m.tlb[key%tlbSize]
	p := m.pages[key]
	if p == nil {
		var base *[pageSize]byte
		if m.ro != nil {
			base = m.ro.pages[key]
		}
		if !create {
			if base == nil {
				return nil
			}
			*e = tlbEntry{tag: key | tlbValid, ro: true, page: base}
			return base
		}
		p = new([pageSize]byte)
		if base != nil {
			*p = *base // promote: copy the image page before writing
		}
		m.pages[key] = p
	}
	*e = tlbEntry{tag: key | tlbValid, page: p}
	return p
}

// Byte returns the byte at addr (0 if never written).
func (m *Memory) Byte(addr uint32) byte {
	if b, ok := m.ByteHit(addr); ok {
		return b
	}
	p := m.page(addr, false)
	if p == nil {
		return 0
	}
	return p[addr&(pageSize-1)]
}

// SetByte stores one byte.
func (m *Memory) SetByte(addr uint32, v byte) {
	m.page(addr, true)[addr&(pageSize-1)] = v
}

// ReadN reads size bytes starting at addr as a big-endian unsigned value.
// size must be 1, 2, 4 or 8.
func (m *Memory) ReadN(addr uint32, size int) uint64 {
	var v uint64
	off := int(addr & (pageSize - 1))
	if off+size <= pageSize {
		p := m.page(addr, false)
		if p == nil {
			return 0
		}
		for _, b := range p[off : off+size] {
			v = v<<8 | uint64(b)
		}
		return v
	}
	for i := 0; i < size; i++ { // page-crossing access
		v = v<<8 | uint64(m.Byte(addr+uint32(i)))
	}
	return v
}

// WriteN stores the low size bytes of v big-endian at addr.
func (m *Memory) WriteN(addr uint32, size int, v uint64) {
	off := int(addr & (pageSize - 1))
	if off+size <= pageSize {
		p := m.page(addr, true)
		for i := size - 1; i >= 0; i-- {
			p[off+i] = byte(v)
			v >>= 8
		}
		return
	}
	for i := size - 1; i >= 0; i-- { // page-crossing access
		m.SetByte(addr+uint32(i), byte(v))
		v >>= 8
	}
}

// ReadWord reads a 32-bit big-endian word.
func (m *Memory) ReadWord(addr uint32) uint32 {
	if v, ok := m.ReadWordHit(addr); ok {
		return v
	}
	return uint32(m.ReadN(addr, 4))
}

// WriteWord stores a 32-bit big-endian word.
func (m *Memory) WriteWord(addr uint32, v uint32) {
	if !m.WriteWordHit(addr, v) {
		m.WriteN(addr, 4, uint64(v))
	}
}

// ReadWordHit is ReadWord's inlinable fast path, for an interpreter
// loop: the word at addr when addr is aligned and its page is in the
// TLB. Otherwise it reports false, and ReadN, which fills the entry,
// does the read.
func (m *Memory) ReadWordHit(addr uint32) (uint32, bool) {
	if e := m.tlbHit(addr); e != nil && addr%4 == 0 {
		return binary.BigEndian.Uint32(e.page[addr&(pageSize-4):]), true
	}
	return 0, false
}

// WriteWordHit is WriteWord's inlinable fast path: it stores v and
// reports true when addr is aligned and its page is in the TLB and
// private. Otherwise WriteN does the store, copying an image page
// first.
func (m *Memory) WriteWordHit(addr, v uint32) bool {
	if e := m.tlbHit(addr); e != nil && !e.ro && addr%4 == 0 {
		binary.BigEndian.PutUint32(e.page[addr&(pageSize-4):], v)
		return true
	}
	return false
}

// ByteHit is Byte's inlinable fast path: the byte at addr when its page
// is in the TLB.
func (m *Memory) ByteHit(addr uint32) (byte, bool) {
	if e := m.tlbHit(addr); e != nil {
		return e.page[addr%pageSize], true
	}
	return 0, false
}
