package mem

import (
	"bytes"
	"math/rand"
	"testing"

	"multiscalar/internal/snapshot"
)

// Touch and AdoptTags are the warm-state primitives of sampled
// simulation (internal/sample): functional warming installs tags
// without timing, injection copies them into a fresh machine's caches.

func TestTouchInstallsTag(t *testing.T) {
	c := NewCache("test", 1024, 16, 0, 2, NewBus())
	c.Touch(0x1000)
	c.Access(0, 0x1000, false)
	if c.Misses != 0 || c.Hits != 1 {
		t.Errorf("access after Touch: %d hits, %d misses; want a pure hit", c.Hits, c.Misses)
	}
	// An untouched block still misses.
	c.Access(0, 0x8000, false)
	if c.Misses != 1 {
		t.Errorf("untouched access missed %d times, want 1", c.Misses)
	}
}

func TestAdoptTags(t *testing.T) {
	bus := NewBus()
	src := NewCache("src", 1024, 16, 0, 2, bus)
	for addr := uint32(0); addr < 1024; addr += 16 {
		src.Touch(addr)
	}
	dst := NewCache("dst", 1024, 16, 0, 2, bus)
	dst.AdoptTags(src)
	dst.Access(0, 0x100, false)
	if dst.Misses != 0 {
		t.Error("adopted tags did not carry the warm set")
	}
	if dst.Hits != 1 {
		t.Errorf("statistics after one access: %d hits, want 1 (adoption must not carry counters)", dst.Hits)
	}
}

func TestBankedTouchRoutesToBank(t *testing.T) {
	d := NewBankedDCache(4, 1024, 16, 0, 2, NewBus())
	addr := uint32(0x2340)
	d.Touch(addr)
	bank := d.BankOf(addr)
	d.Banks[bank].Access(0, addr, false)
	if d.Banks[bank].Misses != 0 {
		t.Errorf("bank %d missed on a touched address", bank)
	}
}

// TestWarmTouchFilterEquivalent: functional warming puts a LastBlock
// in front of Touch (one Touch per line entered instead of one per
// instruction), address by address (Moved) and run by run (Enter).
// Random fetch-like and data-like address streams must leave the tag
// arrays byte-identical with and without it — at a capture in
// mid-stream (the filter's memo lives across captures) and at the end,
// for power-of-two and other geometries, single and banked. A run is
// one instruction or crosses up to three block boundaries.
func TestWarmTouchFilterEquivalent(t *testing.T) {
	type toucher interface {
		Touch(uint32)
		State(*snapshot.Codec)
	}
	tags := func(c toucher) []byte {
		data, err := snapshot.Save(snapshot.KindWarm, 0, c.State)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	bus := NewBus()
	for _, g := range []struct {
		name  string
		block int
		mk    func() toucher
	}{
		{"icache 1K/16", 16, func() toucher { return NewCache("i", 1024, 16, 0, 2, bus) }},
		{"icache 960/48", 48, func() toucher { return NewCache("i", 960, 48, 0, 2, bus) }},
		{"4 banks 512/64", 64, func() toucher { return NewBankedDCache(4, 512, 64, 0, 2, bus) }},
		{"3 banks 480/24", 24, func() toucher { return NewBankedDCache(3, 480, 24, 0, 2, bus) }},
	} {
		for _, runs := range []bool{false, true} {
			for seed := int64(1); seed <= 4; seed++ {
				rng := rand.New(rand.NewSource(seed))
				plain, filtered := g.mk(), g.mk()
				last := LastBlock{BlockBytes: uint32(g.block)}
				addr, touches, kept := uint32(0x400000), 0, 0
				keep := func(a uint32) {
					filtered.Touch(a)
					kept++
				}
				const n = 20000
				for i := 0; i < n; i++ {
					switch r := rng.Intn(16); {
					case r < 11: // straight-line fetch, sequential walk
						addr += 4
					case r < 13: // short backward branch, same or neighbouring line
						addr -= uint32(rng.Intn(40))
					case r < 15: // a call, or an unrelated array
						addr = 0x400000 + uint32(rng.Intn(1<<14))
					default: // re-touch exactly the same address
					}
					if !runs {
						plain.Touch(addr)
						touches++
						if last.Moved(addr) {
							keep(addr)
						}
					} else {
						addr &^= 3
						end := addr // a one-instruction run
						if rng.Intn(3) > 0 {
							end += 4 * uint32(rng.Intn(3*g.block/4+1))
						}
						for a := addr; a <= end; a += 4 {
							plain.Touch(a)
							touches++
						}
						last.Enter(addr, end, keep)
						addr = end
					}
					if i == n/2 || i == n-1 {
						if !bytes.Equal(tags(plain), tags(filtered)) {
							t.Fatalf("%s runs %v seed %d: tag arrays differ after %d steps", g.name, runs, seed, i+1)
						}
					}
				}
				if kept > touches*3/4 {
					t.Errorf("%s runs %v seed %d: filter kept %d of %d touches; the stream does not exercise it", g.name, runs, seed, kept, touches)
				}
			}
		}
	}
}
