package snapshot_test

import (
	"testing"

	"multiscalar/internal/asm"
	"multiscalar/internal/core"
	"multiscalar/internal/snapshot"
)

// restoreInto returns Multiscalar.Restore on a fresh machine, the one
// way snapshot bytes enter a machine, for wc's multiscalar build on 4
// units.
func restoreInto(tb testing.TB) func([]byte) error {
	return newTiming(tb, buildTB(tb, "wc", asm.ModeMultiscalar), core.DefaultConfig(4, 1, false)).Restore
}

// genuine returns a real mid-run capture of the machine restoreInto
// builds and one taken from a machine of another geometry.
func genuine(tb testing.TB) (snap, otherGeometry []byte) {
	p := buildTB(tb, "wc", asm.ModeMultiscalar)
	return captureTiming(tb, p, core.DefaultConfig(4, 1, false), 100)[0],
		captureTiming(tb, p, core.DefaultConfig(8, 1, false), 100)[0]
}

// retiredKinds are the kinds a snapshot may no longer carry.
var retiredKinds = []uint8{1, 2, 4}

// withKind returns a copy of snap whose header names another kind.
func withKind(snap []byte, kind uint8) []byte {
	out := append([]byte{}, snap...)
	out[snapshot.KindAt] = kind
	return out
}

// FuzzSnapshot feeds arbitrary bytes to Multiscalar.Restore. Any input
// may be rejected with an error; none may panic or over-allocate (the
// codec validates every count against the bytes remaining before
// allocating). The corpus is seeded with a genuine capture, one from a
// machine of another geometry, which walks the body up to the geometry
// check, a truncated capture, and the genuine capture under each retired
// kind.
func FuzzSnapshot(f *testing.F) {
	snap, other := genuine(f)
	f.Add(snap)
	f.Add(other)
	f.Add(snap[:len(snap)/2])
	for _, kind := range retiredKinds {
		f.Add(withKind(snap, kind))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		restoreInto(t)(data) //nolint:errcheck
	})
}
