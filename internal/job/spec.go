// Package job is the one unit of work in the repository and the machinery
// every consumer of it shares.
//
// A Spec names everything that determines a result — the program (inline,
// as source, or as a suite workload), the machine Config, the program
// input, the run bounds, and the artifacts the caller wants back — and
// hashes to a stable content-addressed Key. Execute is the one execution
// path (lockstep verification, trace and snapshot artifacts, sampled runs)
// behind the facade, the bench harness and msserve.
//
// "Have I already done this?" has one implementation: Store, a
// single-flight LRU. Program builds (Spec.Resolve) and functional-oracle
// runs (CachedOracle, filled too by Execute's Verify path) are process-wide instances
// here; msserve's result cache and the bench harness's per-point results
// are instances in their own packages, keyed by Spec.Key. Independent jobs
// at every level fan out through RunJobs, and every call, nested or not,
// draws on one process-wide budget of Workers() runners.
package job

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"

	"multiscalar/internal/asm"
	"multiscalar/internal/core"
	"multiscalar/internal/isa"
)

// SpecVersion tags the canonical encoding Key hashes. Bump it whenever a
// Spec field is added, removed, or reinterpreted, so keys from different
// layouts can never alias. Version 2 added sampled jobs (OpSampled and
// the Sample parameter section); version 3 dropped that section and the
// spec's own cycle bound, which Config.MaxCycles states; version 4 dropped
// the machine-selector byte and carries canonical config version 3.
const SpecVersion = 4

// Op selects what a job does.
type Op uint8

const (
	// OpSimulate runs the timing simulation the Config describes.
	OpSimulate Op = iota
	// OpAssemble only builds the program (returning the .msb container)
	// without simulating it.
	OpAssemble
	// OpSampled runs a SMARTS-style sampled simulation (internal/sample):
	// functional-warm fast-forward plus detailed measurement windows,
	// returning an extrapolated cycle estimate with a confidence interval
	// instead of an exact Result.
	OpSampled
)

func (o Op) String() string {
	switch o {
	case OpSimulate:
		return "simulate"
	case OpAssemble:
		return "assemble"
	case OpSampled:
		return "sampled"
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// Spec is one unit of simulation-service work. The zero value is not a
// valid job: exactly one program identity (Program, Source, or Workload)
// must be set.
//
// Spec is a value type: the fields fully determine the result, and Key
// hashes a canonical encoding of them. Runtime attachments that do not
// affect the result bytes — a live trace sink, a snapshot to resume from — ride
// in a Runtime instead and never enter the key.
type Spec struct {
	Op Op

	// Program identity — exactly one of the three.
	Program  *isa.Program // pre-assembled binary (hashed by content)
	Source   string       // annotated assembly text, built with Mode
	Workload string       // a suite workload name, built with Mode at Scale

	Scale int      // workload problem scale (0 = the workload's default)
	Mode  asm.Mode // build mode for Source/Workload jobs

	// Config describes the simulated machine (OpSimulate and OpSampled;
	// its runtime-only Sink and NoSkip never reach the key).
	// Config.MaxCycles is the run's cycle bound.
	Config core.Config

	// Stdin is the program's input stream. nil (no input) and empty
	// (present but zero-length input) are distinct, matching the memo
	// contract the bench harness has always kept.
	Stdin []byte

	// MaxInstrs bounds functional executions (0 = DefaultMaxInstrs).
	MaxInstrs uint64

	// Verify judges the timing run in lockstep with a functional machine
	// (core.Multiscalar.Judge): the first retire that leaves a state the
	// sequential run does not is the job's error, a *core.DivergenceError.
	Verify bool

	// Requested artifacts.
	WantTrace    bool // return the run's .mstrc event trace
	WantSnapshot bool // return the finished machine's snapshot
}

// Machine is what "N units" means in the paper's experiments (Section
// 5.1): at most one unit is the scalar baseline, ScalarConfig running the
// scalar build; more is DefaultConfig running the annotated multiscalar
// build. The bench harness, msserve's presets and mssim all ask it.
func Machine(units, width int, ooo bool) (core.Config, asm.Mode) {
	if units <= 1 {
		return core.ScalarConfig(width, ooo), asm.ModeScalar
	}
	return core.DefaultConfig(units, width, ooo), asm.ModeMultiscalar
}

// Validate checks structural invariants common to every consumer.
func (s *Spec) Validate() error {
	if s.Op != OpSimulate && s.Op != OpAssemble && s.Op != OpSampled {
		return fmt.Errorf("job: unknown op %d", int(s.Op))
	}
	if s.Op == OpSampled {
		if s.WantTrace || s.WantSnapshot {
			return errors.New("job: sampled jobs produce no trace or snapshot artifacts")
		}
		if s.Verify {
			return errors.New("job: sampled jobs take no verify flag: every detailed window is judged, and the functional pass is the estimate's oracle")
		}
	}
	n := 0
	if s.Program != nil {
		n++
	}
	if s.Source != "" {
		n++
	}
	if s.Workload != "" {
		n++
	}
	if n != 1 {
		return errors.New("job: exactly one of Program, Source, Workload must be set")
	}
	if s.Op == OpAssemble && s.Program != nil {
		return errors.New("job: assemble jobs take Source or Workload, not a built Program")
	}
	return nil
}

// MarshalCanonical returns the versioned canonical binary encoding of the
// spec: a fixed field order with tagged, length-prefixed sections, the
// program reduced to its content hash, the Config reduced to its
// canonical JSON. Byte-equal encodings mean "the same job"; Key hashes
// exactly these bytes.
func (s *Spec) MarshalCanonical() ([]byte, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	var cfg []byte
	if s.Op == OpSimulate || s.Op == OpSampled {
		var err error
		if cfg, err = s.Config.MarshalCanonical(); err != nil {
			return nil, err
		}
	}
	// One allocation of the encoding's size: a by-source spec carries its
	// text, and growing from a small buffer by doubling would allocate
	// several times the encoding on every Key.
	buf := make([]byte, 0, 160+len(s.Source)+len(s.Workload)+len(cfg)+len(s.Stdin))
	buf = append(buf, 'M', 'S', 'J', 'B', SpecVersion)
	buf = append(buf, byte(s.Op), byte(s.Mode))

	appendBytes := func(tag byte, b []byte) {
		buf = append(buf, tag)
		buf = binary.BigEndian.AppendUint64(buf, uint64(len(b)))
		buf = append(buf, b...)
	}
	switch {
	case s.Program != nil:
		h, err := ProgramHash(s.Program)
		if err != nil {
			return nil, err
		}
		appendBytes('P', []byte(h))
	case s.Source != "":
		appendBytes('S', []byte(s.Source))
	default:
		appendBytes('W', []byte(s.Workload))
	}
	buf = binary.BigEndian.AppendUint64(buf, uint64(int64(s.Scale)))

	if cfg != nil {
		appendBytes('C', cfg)
	}

	if s.Stdin == nil {
		buf = append(buf, 0)
	} else {
		appendBytes(1, s.Stdin)
	}

	buf = binary.BigEndian.AppendUint64(buf, s.MaxInstrs)

	var flags byte
	if s.Verify {
		flags |= 1
	}
	if s.WantTrace {
		flags |= 2
	}
	if s.WantSnapshot {
		flags |= 4
	}
	buf = append(buf, flags)
	return buf, nil
}

// Key returns the spec's stable content-addressed identity: the
// hex-encoded SHA-256 of the canonical encoding. Equal keys mean equal
// jobs (up to hash collision), across processes and over time for a
// given SpecVersion.
func (s *Spec) Key() (string, error) {
	enc, err := s.MarshalCanonical()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(enc)
	return hex.EncodeToString(sum[:]), nil
}

// ProgramHash returns the SHA-256 of the program's wire encoding (text,
// data, task descriptors, symbols). It is computed on every call (tens of
// microseconds): nothing keyed by program pointer outlives a request, and
// a program mutated between calls hashes to its new content.
func ProgramHash(p *isa.Program) (string, error) {
	h := sha256.New()
	if err := isa.WriteProgram(h, p); err != nil {
		return "", err
	}
	return string(h.Sum(nil)), nil
}
