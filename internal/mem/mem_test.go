package mem

import (
	"bytes"
	"testing"
	"testing/quick"

	"multiscalar/internal/snapshot"
)

func TestMemoryBasic(t *testing.T) {
	m := NewMemory()
	m.WriteWord(0x1000, 0xdeadbeef)
	if got := m.ReadWord(0x1000); got != 0xdeadbeef {
		t.Fatalf("word = %x", got)
	}
	// Big-endian byte order.
	if m.Byte(0x1000) != 0xde || m.Byte(0x1003) != 0xef {
		t.Errorf("bytes = %x %x", m.Byte(0x1000), m.Byte(0x1003))
	}
	if m.Byte(0x9999) != 0 {
		t.Error("unwritten byte not zero")
	}
}

func TestMemoryCrossPageWrite(t *testing.T) {
	m := NewMemory()
	buf := make([]byte, 100)
	for i := range buf {
		buf[i] = byte(i)
	}
	addr := uint32(pageSize - 50)
	writeBytes(m, addr, buf)
	for i := range buf {
		if got := m.Byte(addr + uint32(i)); got != buf[i] {
			t.Fatalf("byte %d = %d, want %d", i, got, buf[i])
		}
	}
}

func TestMemoryReadWriteNProperty(t *testing.T) {
	m := NewMemory()
	f := func(addr uint32, v uint64, szSel uint8) bool {
		size := []int{1, 2, 4, 8}[szSel%4]
		m.WriteN(addr, size, v)
		want := v
		if size < 8 {
			want = v & (1<<(8*size) - 1)
		}
		return m.ReadN(addr, size) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// stateBytes is the memory's snapshot section.
func stateBytes(t *testing.T, m *Memory) []byte {
	t.Helper()
	data, err := snapshot.Save(snapshot.KindMultiscalar, 0, m.State)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestMemoryEqual pins what comparing two memories by their snapshot
// sections means (the ARB tests compare committed memory that way): the
// walk lists written pages in ascending order, so memories written at
// the same addresses encode equally exactly when their contents agree,
// whatever order the writes came in. A page written with zeros is still
// a written page.
func TestMemoryEqual(t *testing.T) {
	a, b := NewMemory(), NewMemory()
	if !bytes.Equal(stateBytes(t, a), stateBytes(t, b)) {
		t.Error("empty memories unequal")
	}
	a.WriteWord(0x100, 42)
	a.WriteWord(0x9000, 7)
	b.WriteWord(0x9000, 7)
	b.WriteWord(0x100, 41)
	if bytes.Equal(stateBytes(t, a), stateBytes(t, b)) {
		t.Error("different memories equal")
	}
	b.WriteWord(0x100, 42)
	if !bytes.Equal(stateBytes(t, a), stateBytes(t, b)) {
		t.Error("same contents written in another order unequal")
	}
	a.WriteWord(0x20000, 0)
	if bytes.Equal(stateBytes(t, a), stateBytes(t, b)) {
		t.Error("a zero-written page encodes like a missing one")
	}
}

// cString reads a NUL-terminated string of at most max bytes the way the
// guest's print_string does: one Byte at a time.
func cString(m *Memory, addr uint32, max int) string {
	var out []byte
	for ; len(out) < max; addr++ {
		b := m.Byte(addr)
		if b == 0 {
			break
		}
		out = append(out, b)
	}
	return string(out)
}

func TestReadCString(t *testing.T) {
	m := NewMemory()
	writeBytes(m, 0x2000, []byte("hello\x00world"))
	if got := cString(m, 0x2000, 100); got != "hello" {
		t.Errorf("cstring = %q", got)
	}
}

func TestBusLatency(t *testing.T) {
	b := NewBus()
	// 4 words: 10 cycles.
	if done := b.Access(0, 4); done != 10 {
		t.Errorf("4w done = %d", done)
	}
	// 16 words (64B block): 10+3, queued behind the first.
	if done := b.Access(0, 16); done != 23 {
		t.Errorf("16w done = %d", done)
	}
	// After the bus frees, no queueing.
	if done := b.Access(100, 16); done != 113 {
		t.Errorf("16w at 100 done = %d", done)
	}
	if b.Requests != 3 {
		t.Errorf("requests = %d", b.Requests)
	}
}

func TestBusContention(t *testing.T) {
	b := NewBus()
	d1 := b.Access(0, 4)  // 0..10
	d2 := b.Access(5, 4)  // queued: 10..20
	d3 := b.Access(25, 4) // idle bus: 25..35
	if d1 != 10 || d2 != 20 || d3 != 35 {
		t.Errorf("done = %d %d %d", d1, d2, d3)
	}
}

func TestCacheHitMiss(t *testing.T) {
	bus := NewBus()
	c := NewCache("test", 1024, 64, 1, 4, bus)
	// Cold miss: hit latency + bus(16 words)=13 + hit latency to return.
	done := c.Access(0, 0x1000, false)
	if c.Misses != 1 {
		t.Fatalf("misses = %d", c.Misses)
	}
	if done != 1+13+1 {
		t.Errorf("miss done = %d, want 15", done)
	}
	// Now a hit, 1 cycle.
	done = c.Access(20, 0x1004, false)
	if c.Hits != 1 || done != 21 {
		t.Errorf("hit done = %d, hits = %d", done, c.Hits)
	}
	// Different block mapping to same set evicts.
	done = c.Access(30, 0x1000+1024, false)
	if c.Misses != 2 {
		t.Errorf("conflict miss not counted")
	}
	_ = done
	if c.Access(40, 0x1000, false); c.Misses != 3 {
		t.Error("evicted block still resident")
	}
}

func TestCacheMSHRMerge(t *testing.T) {
	bus := NewBus()
	c := NewCache("test", 1024, 64, 1, 4, bus)
	d1 := c.Access(0, 0x2000, false)
	d2 := c.Access(1, 0x2004, false) // same block, in flight -> merge
	if c.Merges != 1 {
		t.Errorf("merges = %d", c.Merges)
	}
	if d2 > d1+1 {
		t.Errorf("merged access done = %d vs %d", d2, d1)
	}
	if bus.Requests != 1 {
		t.Errorf("bus requests = %d, want 1 (merged)", bus.Requests)
	}
}

func TestCacheMSHRExhaustion(t *testing.T) {
	bus := NewBus()
	c := NewCache("test", 4096, 64, 1, 2, bus)
	c.Access(0, 0x0000, false)
	c.Access(0, 0x1000, false)
	// Third distinct miss with 2 MSHRs must wait for one to free.
	d3 := c.Access(0, 0x2000, false)
	if d3 < 20 {
		t.Errorf("third miss done = %d, expected to queue", d3)
	}
}

func TestBankedDCacheInterleaving(t *testing.T) {
	bus := NewBus()
	d := NewBankedDCache(4, 8192, 64, 2, 4, bus)
	if d.BankOf(0) == d.BankOf(64) {
		t.Error("adjacent blocks map to same bank")
	}
	if d.BankOf(0) != d.BankOf(4*64) {
		t.Error("stride-4-blocks should wrap to same bank")
	}
}

func TestBankConflict(t *testing.T) {
	bus := NewBus()
	d := NewBankedDCache(2, 8192, 64, 2, 4, bus)
	// Warm bank-0 addresses 0 and 128, and bank-1 address 64.
	d.Access(0, 0, false)
	d.Access(100, 128, false)
	d.Access(150, 64, false)
	base := uint64(200)
	d1 := d.Access(base, 0, false)   // hit: 2 cycles
	d2 := d.Access(base, 128, false) // same bank, same cycle: +1 queue
	if d1 != base+2 {
		t.Errorf("d1 = %d", d1)
	}
	if d2 != base+3 {
		t.Errorf("d2 = %d, want %d (bank conflict)", d2, base+3)
	}
	if d.Conflicts != 1 {
		t.Errorf("conflicts = %d", d.Conflicts)
	}
	// Different banks in the same cycle proceed in parallel.
	d3 := d.Access(base+10, 0, false)
	d4 := d.Access(base+10, 64, false)
	if d3 != d4 {
		t.Errorf("parallel banks: %d vs %d", d3, d4)
	}
}

func TestMissRate(t *testing.T) {
	bus := NewBus()
	c := NewCache("test", 1024, 64, 1, 4, bus)
	c.Access(0, 0, false)
	c.Access(50, 0, false)
	c.Access(100, 0, false)
	c.Access(150, 0, false)
	if c.Misses != 1 || c.Hits+c.Merges != 3 {
		t.Errorf("misses %d, hits %d, merges %d: want one miss in four", c.Misses, c.Hits, c.Merges)
	}
}
