package mem

import "multiscalar/internal/trace"

// Bus models the single 4-word split-transaction memory bus of
// Section 5.1: every memory request (icache and dcache misses alike) pays
// a 10-cycle access latency for the first 4 words and 1 cycle for each
// additional 4 words, serialized with any other traffic (the paper's
// "plus any bus contention"). Like Cache.Access, Access returns the
// completion cycle synchronously and latches contention in busyUntil —
// the timestamp-latching property the core's wakeup scheduler depends
// on (docs/perf.md).
type Bus struct {
	FirstLatency int // cycles for the first 4 words (paper: 10)
	PerChunk     int // cycles per additional 4 words (paper: 1)

	// Sink, when non-nil, receives a KBusRequest event per transfer,
	// stamped with the cycle the bus actually starts it.
	Sink trace.Sink

	busyUntil uint64

	// Stats
	Requests   uint64
	BusyCycles uint64
}

// NewBus returns a bus with the paper's parameters.
func NewBus() *Bus { return &Bus{FirstLatency: 10, PerChunk: 1} }

// Access requests a transfer of the given number of 32-bit words starting
// at cycle now, and returns the cycle at which the data is complete.
func (b *Bus) Access(now uint64, words int) (done uint64) {
	if words <= 0 {
		words = 4
	}
	chunks := (words + 3) / 4
	dur := uint64(b.FirstLatency + (chunks-1)*b.PerChunk)
	start := now
	if b.busyUntil > start {
		start = b.busyUntil
	}
	done = start + dur
	b.busyUntil = done
	b.Requests++
	b.BusyCycles += dur
	if b.Sink != nil {
		b.Sink.Emit(trace.Event{Cycle: start, Kind: trace.KBusRequest, Unit: -1, Task: -1, Arg2: dur})
	}
	return done
}

// Reset clears bus state between runs.
func (b *Bus) Reset() {
	b.busyUntil = 0
	b.Requests = 0
	b.BusyCycles = 0
}
