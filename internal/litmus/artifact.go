package litmus

import (
	"encoding/json"
	"fmt"

	"multiscalar/internal/asm"
	"multiscalar/internal/core"
	"multiscalar/internal/job"
)

// ArtifactVersion tags the repro-artifact JSON layout.
const ArtifactVersion = 1

// Artifact is a self-contained repro of one differential mismatch:
// everything needed to rebuild and re-run the failing cell without the
// generator — the program source, the canonical machine config, the
// generation seed, the expected and observed outcomes, and the final
// -machine snapshot of the divergent run. encoding/json renders
// Snapshot as base64.
type Artifact struct {
	Version   int             `json:"version"`
	Name      string          `json:"name"`
	Seed      int64           `json:"seed"`
	Source    string          `json:"source"`
	Config    json.RawMessage `json:"config"` // core.Config canonical encoding
	Entry     string          `json:"entry"`  // human-readable matrix cell
	Want      string          `json:"want"`
	WantCount uint64          `json:"want_icount"`
	Got       string          `json:"got,omitempty"`
	Committed uint64          `json:"got_committed,omitempty"`
	Error     string          `json:"error,omitempty"`
	Diagnosis string          `json:"diagnosis,omitempty"`
	Snapshot  []byte          `json:"snapshot,omitempty"`
}

// NewArtifact captures a mismatch as a replayable artifact. The config
// is stored in its canonical encoding so the replay runs byte-for-byte
// the same machine.
func NewArtifact(p *Program, e MatrixEntry, mm *Mismatch, seed int64, snapshot []byte) *Artifact {
	cfg, err := e.Config().MarshalCanonical()
	if err != nil {
		// Matrix configs always encode; a failure here is a bug worth
		// surfacing in the artifact itself rather than dropping it.
		cfg = []byte(fmt.Sprintf(`{"error":%q}`, err.Error()))
	}
	return &Artifact{
		Version:   ArtifactVersion,
		Name:      p.Name,
		Seed:      seed,
		Source:    p.Source,
		Config:    cfg,
		Entry:     e.String(),
		Want:      p.Oracle.Out,
		WantCount: p.Oracle.ICount,
		Got:       mm.Got,
		Committed: mm.Committed,
		Error:     mm.Err,
		Diagnosis: mm.Diagnosis,
		Snapshot:  snapshot,
	}
}

// Encode renders the artifact as indented JSON.
func (a *Artifact) Encode() ([]byte, error) {
	return json.MarshalIndent(a, "", "  ")
}

// DecodeArtifact parses an artifact produced by Encode.
func DecodeArtifact(data []byte) (*Artifact, error) {
	var a Artifact
	if err := json.Unmarshal(data, &a); err != nil {
		return nil, fmt.Errorf("litmus: decoding artifact: %w", err)
	}
	if a.Version != ArtifactVersion {
		return nil, fmt.Errorf("litmus: artifact version %d (want %d)", a.Version, ArtifactVersion)
	}
	return &a, nil
}

// ReplayResult is the outcome of re-running an artifact.
type ReplayResult struct {
	Reproduced bool   // the run still diverges from the recorded oracle
	Got        string // this run's output
	Committed  uint64
	Err        string // this run's error, if it failed outright
}

// Replay rebuilds the artifact's program from source and re-runs it
// under the recorded config, reporting whether the mismatch still
// reproduces.
func (a *Artifact) Replay() (*ReplayResult, error) {
	cfg, err := core.UnmarshalCanonicalConfig(a.Config)
	if err != nil {
		return nil, err
	}
	prog, err := asm.Assemble(a.Source, asm.ModeMultiscalar)
	if err != nil {
		return nil, fmt.Errorf("litmus: reassembling artifact source: %w", err)
	}
	spec := &job.Spec{
		Op:      job.OpSimulate,
		Program: prog,
		Config:  cfg,
	}
	out, err := job.Execute(spec, nil)
	if err != nil {
		return &ReplayResult{Reproduced: true, Err: err.Error()}, nil
	}
	r := &ReplayResult{Got: out.Result.Out, Committed: out.Result.Committed}
	r.Reproduced = r.Got != a.Want || r.Committed != a.WantCount
	return r, nil
}
