package mem

import (
	"bytes"
	"testing"
)

// readNSlow is the reference per-byte implementation ReadN must match.
func readNSlow(m *Memory, addr uint32, size int) uint64 {
	var v uint64
	for i := 0; i < size; i++ {
		v = v<<8 | uint64(m.Byte(addr+uint32(i)))
	}
	return v
}

func TestReadWriteNCrossPage(t *testing.T) {
	m := NewMemory()
	for _, size := range []int{1, 2, 4, 8} {
		for delta := -8; delta <= 0; delta++ {
			addr := uint32(3*pageSize) + uint32(pageSize+delta)
			v := uint64(0x1122334455667788)
			m.WriteN(addr, size, v)
			want := v
			if size < 8 {
				want = v & (1<<(8*size) - 1)
			}
			if got := m.ReadN(addr, size); got != want {
				t.Errorf("size %d at page offset %d: ReadN = %#x, want %#x", size, delta, got, want)
			}
			if got := readNSlow(m, addr, size); got != want {
				t.Errorf("size %d at page offset %d: per-byte read = %#x, want %#x", size, delta, got, want)
			}
		}
	}
}

func TestReadNUnmappedPage(t *testing.T) {
	m := NewMemory()
	if got := m.ReadN(0x5000, 8); got != 0 {
		t.Errorf("unmapped ReadN = %#x", got)
	}
	// Crossing from a mapped into an unmapped page.
	m.SetByte(pageSize-1, 0xab)
	if got := m.ReadN(pageSize-1, 2); got != 0xab00 {
		t.Errorf("boundary ReadN = %#x, want 0xab00", got)
	}
}

func TestBytesCrossPageAndHoles(t *testing.T) {
	m := NewMemory()
	// Write into pages 1 and 3, leaving page 2 a hole.
	m.WriteBytes(pageSize-4, []byte{1, 2, 3, 4, 5, 6})
	m.WriteBytes(3*pageSize, []byte{7, 8})
	// Every read of every width straddling a page boundary, into or out
	// of the hole, agrees with per-byte reads.
	for _, edge := range []uint32{pageSize, 2 * pageSize, 3 * pageSize} {
		for addr := edge - 8; addr < edge+8; addr++ {
			for _, size := range []int{1, 2, 4, 8} {
				if got, want := m.ReadN(addr, size), readNSlow(m, addr, size); got != want {
					t.Errorf("ReadN(%#x, %d) = %#x, per-byte %#x", addr, size, got, want)
				}
			}
		}
	}
	if got := m.ReadN(pageSize-4, 8); got != 0x0102030405060000 {
		t.Errorf("mapped prefix = %#x", got)
	}
}

func TestReadCStringCrossPage(t *testing.T) {
	m := NewMemory()
	long := bytes.Repeat([]byte("x"), pageSize+10)
	addr := uint32(2*pageSize - 5)
	m.WriteBytes(addr, append(long, 0))
	if got := cString(m, addr, 1<<20); got != string(long) {
		t.Errorf("cross-page cstring: len %d, want %d", len(got), len(long))
	}
	// max truncates before the terminator.
	if got := cString(m, addr, 7); got != "xxxxxxx" {
		t.Errorf("truncated cstring = %q", got)
	}
	// Terminator exactly at a page boundary.
	m2 := NewMemory()
	m2.WriteBytes(pageSize-3, []byte("abc"))
	if got := cString(m2, pageSize-3, 100); got != "abc" {
		t.Errorf("boundary cstring = %q", got)
	}
	// String running into an absent page terminates (absent = NULs).
	m3 := NewMemory()
	m3.WriteBytes(pageSize-2, []byte("hi"))
	if got := cString(m3, pageSize-2, 100); got != "hi" {
		t.Errorf("hole-terminated cstring = %q", got)
	}
}

func TestLastPageCacheCoherent(t *testing.T) {
	m := NewMemory()
	m.WriteWord(0x1000, 0x01020304)
	_ = m.ReadWord(0x1000) // warm the last-page cache
	m.WriteWord(0x1000+pageSize, 0x0a0b0c0d)
	if got := m.ReadWord(0x1000); got != 0x01020304 {
		t.Errorf("first page = %#x", got)
	}
	if got := m.ReadWord(0x1000 + pageSize); got != 0x0a0b0c0d {
		t.Errorf("second page = %#x", got)
	}
}

func BenchmarkReadWord(b *testing.B) {
	m := NewMemory()
	m.WriteBytes(0, make([]byte, 4*pageSize))
	b.ResetTimer()
	var sink uint32
	for i := 0; i < b.N; i++ {
		sink += m.ReadWord(uint32(i*4) % (4 * pageSize))
	}
	_ = sink
}

func BenchmarkWriteWord(b *testing.B) {
	m := NewMemory()
	for i := 0; i < b.N; i++ {
		m.WriteWord(uint32(i*4)%(4*pageSize), uint32(i))
	}
}
