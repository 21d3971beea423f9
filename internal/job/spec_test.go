package job

import (
	"testing"

	"multiscalar/internal/asm"
	"multiscalar/internal/core"
)

func baseSpec() *Spec {
	return &Spec{
		Op:       OpSimulate,
		Workload: "example",
		Scale:    -1,
		Mode:     asm.ModeMultiscalar,
		Config:   core.DefaultConfig(4, 1, false),
	}
}

func key(t *testing.T, s *Spec) string {
	t.Helper()
	k, err := s.Key()
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestKeyDeterministicAndSensitive(t *testing.T) {
	a, b := baseSpec(), baseSpec()
	if key(t, a) != key(t, b) {
		t.Fatal("identical specs produced different keys")
	}
	// Every semantic axis must split the key.
	mutations := map[string]func(*Spec){
		"units":     func(s *Spec) { s.Config.NumUnits = 8 },
		"workload":  func(s *Spec) { s.Workload = "cmp" },
		"scale":     func(s *Spec) { s.Scale = 0 },
		"op":        func(s *Spec) { s.Op = OpAssemble },
		"stdin":     func(s *Spec) { s.Stdin = []byte("x") },
		"maxcycles": func(s *Spec) { s.MaxCycles = 99 },
		"verify":    func(s *Spec) { s.Verify = true },
		"trace":     func(s *Spec) { s.WantTrace = true },
		"snapshot":  func(s *Spec) { s.WantSnapshot = true },
	}
	for name, mutate := range mutations {
		m := baseSpec()
		mutate(m)
		if key(t, m) == key(t, a) {
			t.Errorf("%s: mutation did not change the key", name)
		}
	}
}

// TestKeyStdinNilVsEmpty pins that "no stdin" and "empty stdin" are
// distinct requests: a program that reads input behaves differently on
// EOF-at-once vs no input attached.
func TestKeyStdinNilVsEmpty(t *testing.T) {
	a, b := baseSpec(), baseSpec()
	b.Stdin = []byte{}
	if key(t, a) == key(t, b) {
		t.Fatal("nil and empty stdin share a key")
	}
}

// TestKeyIgnoresRuntimeObservers pins the spec/runtime split from the
// config side: attaching a tracer or sink to the Config must not split
// the cache, because canonical config encoding excludes observers.
func TestKeyIgnoresRuntimeObservers(t *testing.T) {
	a, b := baseSpec(), baseSpec()
	b.Config.Trace = discardWriter{}
	if key(t, a) != key(t, b) {
		t.Fatal("a Config observer changed the job key")
	}
}

type discardWriter struct{}

func (discardWriter) Write(p []byte) (int, error) { return len(p), nil }

func TestValidate(t *testing.T) {
	bad := []*Spec{
		{Op: OpSimulate, Config: core.DefaultConfig(1, 1, false)},                                   // no source
		{Op: OpSimulate, Workload: "example", Source: "x", Config: core.DefaultConfig(1, 1, false)}, // two sources
		{Op: 99, Workload: "example", Config: core.DefaultConfig(1, 1, false)},                      // bad op
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %d accepted: %+v", i, s)
		}
	}
	if err := baseSpec().Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
}
