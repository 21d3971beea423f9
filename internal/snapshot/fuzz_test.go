package snapshot_test

import (
	"testing"

	"multiscalar/internal/asm"
	"multiscalar/internal/core"
	"multiscalar/internal/interp"
	"multiscalar/internal/isa"
)

// restorePath is one of the five ways snapshot bytes enter a machine:
// Restore on each of the three machine kinds and InjectWarm on the two
// timing machines. fresh builds a new machine and returns the method
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
		{"interp.Restore",
			func(tb testing.TB) func([]byte) error { return interp.NewMachine(sp, interp.NewSysEnv()).Restore },
			// The functional machine has no geometry to disagree with.
			func(tb testing.TB) ([]byte, []byte) { return captureInterp(tb, sp, 100)[0], nil }},
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

// FuzzSnapshot feeds arbitrary bytes to all four restore paths. Any
// input may be rejected with an error; none may panic or over-allocate
// (the codec validates every count against the bytes remaining before
// allocating). The corpus is seeded with a genuine capture per path.
func FuzzSnapshot(f *testing.F) {
	paths := restorePaths(f)
	for _, p := range paths {
		snap, _ := p.genuine(f)
		f.Add(snap)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, p := range paths {
			p.fresh(t)(data) //nolint:errcheck
		}
	})
}
