// Package mem provides the memory hierarchy: the backing store shared by
// all simulators plus the timing models from Section 5.1 of the paper —
// the split-transaction memory bus, direct-mapped caches, and the
// interleaved data banks behind a crossbar.
package mem

const pageBits = 12
const pageSize = 1 << pageBits

// Memory is a sparse, paged, big-endian, byte-addressable store over the
// full 32-bit address space. The zero value is ready to use.
//
// A Memory may be seeded from an immutable Image (NewMemoryFromImage):
// image pages are shared read-only between every Memory built from the
// image and copied into private pages on first write, so constructing a
// machine over a large data segment costs O(1) instead of one copy of
// the segment. Sharing the image across concurrently running Memories
// is safe — image pages are never written.
//
// Memory is not safe for concurrent use: even reads update the internal
// last-page cache. Every simulation run owns its Memory, so this only
// matters if one instance is shared across goroutines.
type Memory struct {
	pages map[uint32]*[pageSize]byte
	ro    *Image // copy-on-write base image; nil when unseeded

	// Last-page cache: simulated accesses are heavily page-local, so one
	// comparison usually replaces the map lookup. lastRO marks a cached
	// image page, which must be promoted before it can be written.
	lastKey  uint32
	lastPage *[pageSize]byte
	lastRO   bool
}

// Image is an immutable page set used to seed Memories copy-on-write.
// Build one with Memory.Image.
type Image struct {
	pages map[uint32]*[pageSize]byte
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

// Image deep-copies the memory's current contents into an immutable
// image suitable for seeding further Memories.
func (m *Memory) Image() *Image {
	img := &Image{pages: make(map[uint32]*[pageSize]byte, len(m.pages))}
	if m.ro != nil {
		for key, p := range m.ro.pages {
			img.pages[key] = p // immutable, safe to alias
		}
	}
	for key, p := range m.pages {
		q := new([pageSize]byte)
		*q = *p
		img.pages[key] = q
	}
	return img
}

func (m *Memory) page(addr uint32, create bool) *[pageSize]byte {
	key := addr >> pageBits
	if p := m.lastPage; p != nil && m.lastKey == key && !(create && m.lastRO) {
		return p
	}
	if m.pages == nil {
		if !create && m.ro == nil {
			return nil
		}
		m.pages = make(map[uint32]*[pageSize]byte)
	}
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
			m.lastKey, m.lastPage, m.lastRO = key, base, true
			return base
		}
		p = new([pageSize]byte)
		if base != nil {
			*p = *base // promote: copy the image page before writing
		}
		m.pages[key] = p
	}
	m.lastKey, m.lastPage, m.lastRO = key, p, false
	return p
}

// Byte returns the byte at addr (0 if never written).
func (m *Memory) Byte(addr uint32) byte {
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
func (m *Memory) ReadWord(addr uint32) uint32 { return uint32(m.ReadN(addr, 4)) }

// WriteWord stores a 32-bit big-endian word.
func (m *Memory) WriteWord(addr uint32, v uint32) { m.WriteN(addr, 4, uint64(v)) }

// WriteBytes copies buf into memory starting at addr.
func (m *Memory) WriteBytes(addr uint32, buf []byte) {
	for len(buf) > 0 {
		p := m.page(addr, true)
		off := int(addr & (pageSize - 1))
		n := copy(p[off:], buf)
		buf = buf[n:]
		addr += uint32(n)
	}
}
