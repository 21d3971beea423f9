package pu

// The unit's two pipeline queues (the fetch queue and the instruction
// window) pop from the head every cycle. Shifting the remaining entries
// forward on every pop costs a typed copy of the whole queue — with
// write barriers, since entries hold instruction pointers — per retired
// or dispatched instruction, and that copy showed up as >10% of timing
// simulation. Instead each queue is a contiguous window into a backing
// buffer a few times its architectural capacity: a pop just advances the
// window (q = q[1:]), and a push (qpush; dispatch, which builds its entry
// in place) slides the window back to the front of the buffer only when
// it reaches the end, amortizing the copy over the slack. Entries stay
// contiguous in logical (oldest-first) order, so the window masks and the
// snapshot serialization index the slice directly.

// queueSlack sizes the backing buffer as a multiple of the architectural
// capacity: compaction copies at most one capacity's worth of entries per
// (queueSlack-1) capacities of pushes.
const queueSlack = 4

// qpush appends v to the window q over backing buffer buf, sliding the
// window back to the front of buf first if it has reached the end. The
// caller bounds len(q) by the architectural capacity, which is at most
// len(buf)/queueSlack, so the append below never allocates.
func qpush[T any](buf, q []T, v T) []T {
	if len(q) == cap(q) {
		n := copy(buf, q) // overlapping copy is fine: dst precedes src
		q = buf[:n]
	}
	return append(q, v)
}
