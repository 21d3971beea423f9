package mem

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"multiscalar/internal/snapshot"
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
	writeBytes(m, pageSize-4, []byte{1, 2, 3, 4, 5, 6})
	writeBytes(m, 3*pageSize, []byte{7, 8})
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
	writeBytes(m, addr, append(long, 0))
	if got := cString(m, addr, 1<<20); got != string(long) {
		t.Errorf("cross-page cstring: len %d, want %d", len(got), len(long))
	}
	// max truncates before the terminator.
	if got := cString(m, addr, 7); got != "xxxxxxx" {
		t.Errorf("truncated cstring = %q", got)
	}
	// Terminator exactly at a page boundary.
	m2 := NewMemory()
	writeBytes(m2, pageSize-3, []byte("abc"))
	if got := cString(m2, pageSize-3, 100); got != "abc" {
		t.Errorf("boundary cstring = %q", got)
	}
	// String running into an absent page terminates (absent = NULs).
	m3 := NewMemory()
	writeBytes(m3, pageSize-2, []byte("hi"))
	if got := cString(m3, pageSize-2, 100); got != "hi" {
		t.Errorf("hole-terminated cstring = %q", got)
	}
}

// TestTLBSlotConflict: two pages that share a TLB slot evict each other
// on every access and still keep their own contents, through the
// general methods and the fast paths alike.
func TestTLBSlotConflict(t *testing.T) {
	m := NewMemory()
	a, b := uint32(0x1000), uint32(0x1000+tlbSize*pageSize)
	if a>>pageBits%tlbSize != b>>pageBits%tlbSize {
		t.Fatal("the two pages do not share a slot")
	}
	for i := uint32(0); i < 8; i++ {
		m.WriteWord(a+4*i, 0xa0+i)
		if !m.WriteWordHit(b+4*i, 0xb0+i) {
			m.WriteWord(b+4*i, 0xb0+i)
		}
	}
	for i := uint32(0); i < 8; i++ {
		if got := m.ReadWord(a + 4*i); got != 0xa0+i {
			t.Errorf("page a word %d = %#x", i, got)
		}
		if got, ok := m.ReadWordHit(b + 4*i); ok {
			t.Errorf("page b word %d hit the slot page a holds (%#x)", i, got)
		}
		if got := m.ReadWord(b + 4*i); got != 0xb0+i {
			t.Errorf("page b word %d = %#x", i, got)
		}
		if got, ok := m.ByteHit(b + 4*i + 3); !ok || got != byte(0xb0+i) {
			t.Errorf("page b byte %d = %#x, %v", i, got, ok)
		}
		if got := m.Byte(a + 4*i + 3); got != byte(0xa0+i) {
			t.Errorf("page a byte %d = %#x", i, got)
		}
	}
}

// writeBytes copies buf into m starting at addr.
func writeBytes(m *Memory, addr uint32, buf []byte) {
	for i, b := range buf {
		m.SetByte(addr+uint32(i), b)
	}
}

// imageOf returns an image whose page 0x10000 holds 0x11111111 at
// 0x10000000 and 0x22222222 at 0x10000004.
func imageOf() *Image {
	return ImageOf(0x10000000, []byte{0x11, 0x11, 0x11, 0x11, 0x22, 0x22, 0x22, 0x22})
}

// TestImageOfAliasesFullPages: an image points into the bytes it is
// built from, a page at a time, and copies only a final partial page,
// which reads zero past the end of the data. Building the image of 64
// pages and a part allocates that one page, the page map and the Image.
func TestImageOfAliasesFullPages(t *testing.T) {
	const pages = 64
	data := make([]byte, pages*pageSize+100)
	for i := range data {
		data[i] = byte(i*7 + 1)
	}
	img := ImageOf(0x10000000, data)
	for i := uint32(0); i < pages; i++ {
		if p := img.pages[0x10000+i]; &p[0] != &data[i*pageSize] {
			t.Fatalf("page %d is a copy, not the data", i)
		}
	}
	last := img.pages[0x10000+pages]
	if &last[0] == &data[pages*pageSize] {
		t.Fatal("the partial last page aliases the data")
	}
	m := NewMemoryFromImage(img)
	for i, b := range data {
		if got := m.Byte(0x10000000 + uint32(i)); got != b {
			t.Fatalf("byte %d = %#x, want %#x", i, got, b)
		}
	}
	for a := uint32(len(data)); a < (pages+1)*pageSize; a++ {
		if got := m.Byte(0x10000000 + a); got != 0 {
			t.Fatalf("byte %d past the data = %#x", a, got)
		}
	}
	m.WriteWord(0x10000000, 0)
	if data[0] != 1 {
		t.Error("a write through the memory reached the data")
	}

	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	pageMap := allocated(func() {
		m := make(map[uint32]*[pageSize]byte, pages+1)
		for i := uint32(0); i <= pages; i++ {
			m[i] = nil
		}
		runtime.KeepAlive(m)
	})
	if got := allocated(func() { img = ImageOf(0x10000000, data) }); got > pageSize+pageMap+16 {
		t.Errorf("the image of %d pages allocated %d bytes; a page and the page map are %d", pages, got, pageSize+pageMap)
	}
	runtime.KeepAlive(img)
}

// TestTLBPromotesImagePage: reading an image page maps it read-only, so
// the write fast path declines it, and the write that follows copies the
// page: the writer sees its value, the image and every other Memory over
// it the old one.
func TestTLBPromotesImagePage(t *testing.T) {
	img := imageOf()
	m := NewMemoryFromImage(img)
	if got := m.ReadWord(0x10000000); got != 0x11111111 {
		t.Fatalf("image word = %#x", got)
	}
	if got, ok := m.ReadWordHit(0x10000004); !ok || got != 0x22222222 {
		t.Errorf("read of a mapped image page = %#x, %v", got, ok)
	}
	if m.WriteWordHit(0x10000000, 0x33333333) {
		t.Fatal("the fast path wrote an image page")
	}
	m.WriteWord(0x10000000, 0x33333333)
	if got, ok := m.ReadWordHit(0x10000000); !ok || got != 0x33333333 {
		t.Errorf("writer reads %#x, %v after its write", got, ok)
	}
	if got := m.ReadWord(0x10000004); got != 0x22222222 {
		t.Errorf("the promoted copy lost the image's other word: %#x", got)
	}
	if !m.WriteWordHit(0x10000004, 0x44444444) {
		t.Error("the write fast path declined a private page")
	}
	other := NewMemoryFromImage(img)
	if got := other.ReadWord(0x10000000); got != 0x11111111 {
		t.Errorf("second memory over the image reads %#x", got)
	}
	if got := m.ReadWord(0x10000004); got != 0x44444444 {
		t.Errorf("the writer reads %#x after a fast write", got)
	}
	if got := NewMemoryFromImage(img).ReadWord(0x10000004); got != 0x22222222 {
		t.Errorf("the image changed: %#x", got)
	}
}

// TestTLBStateLoad: loading a snapshot replaces the page map, so reads
// after it return the restored contents, not pages the TLB still maps.
func TestTLBStateLoad(t *testing.T) {
	m := NewMemoryFromImage(imageOf())
	m.WriteWord(0x2000, 1)
	m.WriteWord(0x10000000, 2)
	saved := stateBytes(t, m)
	m.WriteWord(0x2000, 3)
	m.WriteWord(0x10000000, 4)
	m.WriteWord(0x5000, 5)
	_, _ = m.ReadWordHit(0x2000) // every page mapped
	_, _ = m.ReadWordHit(0x10000000)
	if err := snapshot.Load(saved, snapshot.KindMultiscalar, m.State); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ addr, want uint32 }{{0x2000, 1}, {0x10000000, 2}, {0x10000004, 0x22222222}, {0x5000, 0}} {
		if got := m.ReadWord(c.addr); got != c.want {
			t.Errorf("after load, word at %#x = %#x, want %#x", c.addr, got, c.want)
		}
		if got, ok := m.ReadWordHit(c.addr); ok && got != c.want {
			t.Errorf("after load, fast word at %#x = %#x, want %#x", c.addr, got, c.want)
		}
	}
	m.WriteWord(0x2000, 6)
	if got := stateBytes(t, m); bytes.Equal(got, saved) {
		t.Error("a write after the load did not reach the restored page")
	}
}

// TestZeroValueMemory: the zero Memory reads zeros, its fast paths miss,
// and page-crossing accesses allocate what they write.
func TestZeroValueMemory(t *testing.T) {
	var m Memory
	if _, ok := m.ReadWordHit(0); ok {
		t.Error("fast read hit an empty memory")
	}
	if m.WriteWordHit(0, 1) {
		t.Error("fast write hit an empty memory")
	}
	if got := m.ReadN(pageSize-2, 4) | uint64(m.Byte(0)); got != 0 {
		t.Errorf("empty memory reads %#x", got)
	}
	m.WriteN(pageSize-2, 4, 0xdeadbeef)
	if got := m.ReadN(pageSize-2, 4); got != 0xdeadbeef {
		t.Errorf("page-crossing word = %#x", got)
	}
	if got, ok := m.ByteHit(pageSize); !ok || got != 0xbe {
		t.Errorf("byte after the boundary = %#x, %v", got, ok)
	}
}

// TestImageSharedAcrossGoroutines: Memories over one image, each driven
// by its own goroutine, read the shared pages through their own TLBs and
// write their own copies; under -race this shows the image, and the
// data its pages point into, are only read.
func TestImageSharedAcrossGoroutines(t *testing.T) {
	const pages = 3 * tlbSize // more pages than slots: entries are evicted
	data := make([]byte, pages*pageSize)
	for i := uint32(0); i < pages; i++ {
		binary.BigEndian.PutUint32(data[i*pageSize:], i)
	}
	img := ImageOf(0x10000000, data)
	errs := make(chan string, 2)
	var wg sync.WaitGroup
	for g := uint32(1); g <= 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := NewMemoryFromImage(img)
			for round := 0; round < 4; round++ {
				for i := uint32(0); i < pages; i++ {
					addr := 0x10000000 + i*pageSize
					want := i
					if i%2 == 0 && round > 0 {
						want = g<<16 | i
					}
					if got := m.ReadWord(addr); got != want {
						errs <- fmt.Sprintf("memory %d round %d: page %d reads %#x, want %#x", g, round, i, got, want)
						return
					}
					if i%2 == 0 {
						m.WriteWord(addr, g<<16|i)
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if got := NewMemoryFromImage(img).ReadWord(0x10000000 + 2*pageSize); got != 2 {
		t.Errorf("the image changed: %#x", got)
	}
	if got := binary.BigEndian.Uint32(data[2*pageSize:]); got != 2 {
		t.Errorf("the data changed: %#x", got)
	}
}

func BenchmarkReadWord(b *testing.B) {
	m := NewMemory()
	writeBytes(m, 0, make([]byte, 4*pageSize))
	b.ResetTimer()
	var sink uint32
	for i := 0; i < b.N; i++ {
		sink += m.ReadWord(uint32(i*4) % (4 * pageSize))
	}
	_ = sink
}

// BenchmarkReadWordRegions reads the way the suite's programs do: a
// word from the stack, one from the data segment's globals (image pages)
// and one from an array further into it (written, so private), in turn,
// each region walking four pages of its own. One op is one read. The
// regions sit where the programs put them (isa.DataBase, isa.StackTop);
// regions a multiple of 256 KB apart would share TLB slots.
func BenchmarkReadWordRegions(b *testing.B) {
	const data, heap, stack = 0x10000000, 0x10010000, 0x7fffc000
	m := NewMemoryFromImage(ImageOf(data, make([]byte, 4*pageSize)))
	writeBytes(m, heap, make([]byte, 4*pageSize))
	writeBytes(m, stack, make([]byte, 4*pageSize))
	b.ResetTimer()
	for i := 0; i < b.N; i += 3 {
		off := uint32(i/3*4) % (4 * pageSize)
		wordSink += m.ReadWord(stack+off) + m.ReadWord(data+off) + m.ReadWord(heap+off)
	}
}

var wordSink uint32

func BenchmarkWriteWord(b *testing.B) {
	m := NewMemory()
	for i := 0; i < b.N; i++ {
		m.WriteWord(uint32(i*4)%(4*pageSize), uint32(i))
	}
}
