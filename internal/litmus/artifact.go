package litmus

import (
	"encoding/json"
	"errors"
	"fmt"

	"multiscalar/internal/asm"
	"multiscalar/internal/core"
	"multiscalar/internal/job"
)

// ArtifactVersion tags the repro-artifact JSON layout. Version 2 added
// the exit codes; version 3 records the judge's first divergence in place
// of the expected and observed outcomes; version 4 records dense ticking
// beside the config, whose canonical encoding no longer carries it;
// version 5 drops the final-machine snapshot, which no replay read.
const ArtifactVersion = 5

// Artifact is a self-contained repro of one differential mismatch:
// everything needed to rebuild and re-run the failing cell without the
// generator — the program source, the canonical machine config and
// whether the cell ticked densely, the generation seed, and the judge's
// first divergence (or the run's error).
type Artifact struct {
	Version    int                   `json:"version"`
	Name       string                `json:"name"`
	Seed       int64                 `json:"seed"`
	Source     string                `json:"source"`
	Config     json.RawMessage       `json:"config"`  // core.Config canonical encoding
	NoSkip     bool                  `json:"no_skip"` // the run ticked densely (core.Config.NoSkip)
	Entry      string                `json:"entry"`   // human-readable matrix cell
	Divergence *core.DivergenceError `json:"divergence,omitempty"`
	Error      string                `json:"error,omitempty"`
	Diagnosis  string                `json:"diagnosis,omitempty"`
}

// NewArtifact captures a mismatch as a replayable artifact. The config
// is stored in its canonical encoding so the replay runs byte-for-byte
// the same machine.
func NewArtifact(p *Program, e MatrixEntry, mm *Mismatch, seed int64) *Artifact {
	cfg, err := e.Config().MarshalCanonical()
	if err != nil {
		// Matrix configs always encode; a failure here is a bug worth
		// surfacing in the artifact itself rather than dropping it.
		cfg = []byte(fmt.Sprintf(`{"error":%q}`, err.Error()))
	}
	return &Artifact{
		Version:    ArtifactVersion,
		Name:       p.Name,
		Seed:       seed,
		Source:     p.Source,
		Config:     cfg,
		NoSkip:     e.NoSkip,
		Entry:      e.String(),
		Divergence: mm.Divergence,
		Error:      mm.Err,
		Diagnosis:  mm.Diagnosis,
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
	Reproduced bool                  // the run fails as recorded
	Divergence *core.DivergenceError // this run's first divergence
	Err        string                // this run's error, if it failed outright
}

// Replay rebuilds the artifact's program from source and re-runs it,
// judged, under the recorded config and ticking. It reproduces when the
// run reports the same first divergence, or fails with the same error.
// The rebuild skips the lint gate: a repro re-runs the binary it
// recorded, whatever the annotation contract says of it.
func (a *Artifact) Replay() (*ReplayResult, error) {
	cfg, err := core.UnmarshalCanonicalConfig(a.Config)
	if err != nil {
		return nil, err
	}
	cfg.NoSkip = a.NoSkip
	res, err := asm.AssembleOpts(a.Source, asm.Options{Mode: asm.ModeMultiscalar, NoLint: true})
	if err != nil {
		return nil, fmt.Errorf("litmus: reassembling artifact source: %w", err)
	}
	spec := &job.Spec{
		Op:        job.OpSimulate,
		Program:   res.Prog,
		Config:    cfg,
		MaxInstrs: genMaxInstrs,
		Verify:    true,
	}
	r := &ReplayResult{}
	_, err = job.Execute(spec, nil)
	switch {
	case errors.As(err, &r.Divergence):
		r.Reproduced = a.Divergence != nil && *r.Divergence == *a.Divergence
	case err != nil:
		r.Err = err.Error()
		r.Reproduced = r.Err == a.Error
	}
	return r, nil
}
