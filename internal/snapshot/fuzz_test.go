package snapshot_test

import (
	"testing"

	"multiscalar/internal/asm"
	"multiscalar/internal/core"
	"multiscalar/internal/isa"
)

// restorePath is one of the three ways snapshot bytes enter a machine:
// Restore on the timing machine, and InjectWarm on it with a scalar
// binary and with a multiscalar one. fresh builds a new machine and returns the method
// that loads into it; genuine returns a real mid-run capture for the
// path and one taken from a machine of another geometry.
type restorePath struct {
	name    string
	fresh   func(tb testing.TB) func([]byte) error
	genuine func(tb testing.TB) (snap, otherGeometry []byte)
}

func restorePaths(tb testing.TB) []restorePath {
	sp := buildTB(tb, "wc", asm.ModeScalar)
	mp := buildTB(tb, "wc", asm.ModeMultiscalar)
	scfg, mcfg := core.ScalarConfig(1, false), core.DefaultConfig(4, 1, false)
	bigICache := func(cfg core.Config) core.Config {
		cfg.ICacheBytes *= 2
		return cfg
	}
	timing := func(p *isa.Program, cfg, other core.Config) func(testing.TB) ([]byte, []byte) {
		return func(tb testing.TB) ([]byte, []byte) {
			return captureTiming(tb, p, cfg, 100)[0], captureTiming(tb, p, other, 100)[0]
		}
	}
	warm := func(p *isa.Program, cfg core.Config) func(testing.TB) ([]byte, []byte) {
		return func(tb testing.TB) ([]byte, []byte) {
			return captureWarm(tb, p, cfg, 400)[0], captureWarm(tb, p, bigICache(cfg), 400)[0]
		}
	}
	return []restorePath{
		{"Multiscalar.Restore",
			func(tb testing.TB) func([]byte) error { return newTiming(tb, mp, mcfg).Restore },
			timing(mp, mcfg, core.DefaultConfig(8, 1, false))},
		{"Scalar.InjectWarm", // the warm shape of a program without descriptors
			func(tb testing.TB) func([]byte) error { return newTiming(tb, sp, scfg).InjectWarm },
			warm(sp, scfg)},
		{"Multiscalar.InjectWarm",
			func(tb testing.TB) func([]byte) error { return newTiming(tb, mp, mcfg).InjectWarm },
			warm(mp, mcfg)},
	}
}

// FuzzSnapshot feeds arbitrary bytes to all three restore paths. Any
// input may be rejected with an error; none may panic or over-allocate
// (the codec validates every count against the bytes remaining before
// allocating). The corpus is seeded with a genuine capture per path,
// then with each path's capture from a machine of another geometry,
// which walks the body up to the geometry check.
func FuzzSnapshot(f *testing.F) {
	paths := restorePaths(f)
	others := make([][]byte, len(paths))
	for i, p := range paths {
		var snap []byte
		snap, others[i] = p.genuine(f)
		f.Add(snap)
	}
	for _, other := range others {
		f.Add(other)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, p := range paths {
			p.fresh(t)(data) //nolint:errcheck
		}
	})
}
