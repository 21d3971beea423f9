package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"

	"multiscalar/internal/asm"
	"multiscalar/internal/core"
	"multiscalar/internal/isa"
	"multiscalar/internal/job"
)

// WireJob is the JSON request form of a job.Spec (docs/serve.md). The
// machine is given either as a full canonical config (core
// MarshalCanonical form) or as a preset naming the paper's
// configurations; exactly one program identity must be set.
type WireJob struct {
	// Op: "simulate" (default), "assemble", or "trace" — simulate with
	// the .mstrc artifact requested.
	Op string `json:"op,omitempty"`

	// Program identity (exactly one).
	Workload string `json:"workload,omitempty"` // suite workload name
	Source   string `json:"source,omitempty"`   // annotated assembly text
	Program  []byte `json:"program,omitempty"`  // .msb container (base64)

	Scale int    `json:"scale,omitempty"` // workload scale (0 = default)
	Mode  string `json:"mode,omitempty"`  // "scalar" | "multiscalar"

	Config json.RawMessage `json:"config,omitempty"` // canonical Config JSON
	Preset *WirePreset     `json:"preset,omitempty"` // or a paper preset

	Stdin     []byte `json:"stdin,omitempty"`      // program input (base64)
	MaxCycles uint64 `json:"max_cycles,omitempty"` // sets the config's max_cycles
	MaxInstrs uint64 `json:"max_instrs,omitempty"`
	Verify    bool   `json:"verify,omitempty"`
	Snapshot  bool   `json:"snapshot,omitempty"` // request the finished-machine snapshot
}

// WirePreset names a Section 5.1 configuration: job.Machine(units,
// width, ooo).
type WirePreset struct {
	Units int  `json:"units"`
	Width int  `json:"width,omitempty"` // default 1
	OOO   bool `json:"ooo,omitempty"`
}

// Decode converts the wire form to the canonical job.Spec.
func (w *WireJob) Decode() (*job.Spec, error) {
	s := &job.Spec{
		Workload:     w.Workload,
		Source:       w.Source,
		Scale:        w.Scale,
		Stdin:        w.Stdin,
		MaxInstrs:    w.MaxInstrs,
		Verify:       w.Verify,
		WantSnapshot: w.Snapshot,
	}
	switch w.Op {
	case "", "simulate":
		s.Op = job.OpSimulate
	case "trace":
		s.Op = job.OpSimulate
		s.WantTrace = true
	case "assemble":
		s.Op = job.OpAssemble
	default:
		return nil, fmt.Errorf("unknown op %q (valid: simulate, assemble, trace)", w.Op)
	}
	if len(w.Program) > 0 {
		p, err := isa.ReadProgram(bytes.NewReader(w.Program))
		if err != nil {
			return nil, fmt.Errorf("decoding program: %w", err)
		}
		s.Program = p
	}
	// An assemble job's default build is the annotated one; a simulate
	// job's is the one its unit count runs (job.Machine).
	mode := asm.ModeMultiscalar
	if s.Op == job.OpSimulate {
		switch {
		case len(w.Config) > 0 && w.Preset != nil:
			return nil, errors.New("config and preset are mutually exclusive")
		case len(w.Config) > 0:
			cfg, err := core.UnmarshalCanonicalConfig(w.Config)
			if err != nil {
				return nil, err
			}
			s.Config = cfg
			_, mode = job.Machine(cfg.NumUnits, 1, false)
		case w.Preset != nil:
			s.Config, mode = job.Machine(w.Preset.Units, max(w.Preset.Width, 1), w.Preset.OOO)
		default:
			return nil, errors.New("simulate jobs need a config or a preset")
		}
		if w.MaxCycles > 0 {
			s.Config.MaxCycles = w.MaxCycles
		}
		if err := s.Config.Validate(); err != nil {
			return nil, err
		}
	}
	switch w.Mode {
	case "scalar":
		s.Mode = asm.ModeScalar
	case "multiscalar":
		s.Mode = asm.ModeMultiscalar
	case "":
		s.Mode = mode
	default:
		return nil, fmt.Errorf("unknown mode %q (valid: scalar, multiscalar)", w.Mode)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// SubmitRequest is the POST /v1/jobs body.
type SubmitRequest struct {
	Client string  `json:"client,omitempty"`
	Job    WireJob `json:"job"`
}

// NewHandler wraps an Engine in the HTTP/JSON API:
//
//	POST /v1/jobs     one job            (SubmitRequest -> Result)
//	GET  /v1/metrics  engine counters    (Metrics)
//	GET  /healthz     liveness
func NewHandler(e Engine) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			httpError(w, http.StatusMethodNotAllowed, "POST only")
			return
		}
		var req SubmitRequest
		if !decodeBody(w, r, &req) {
			return
		}
		spec, err := req.Job.Decode()
		if err != nil {
			httpError(w, http.StatusBadRequest, "bad job: %v", err)
			return
		}
		res, err := e.Submit(r.Context(), clientID(req.Client, r), spec)
		if err != nil {
			httpError(w, http.StatusUnprocessableEntity, "%v", err)
			return
		}
		writeResult(w, res)
	})
	mux.HandleFunc("/v1/metrics", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, e.Metrics())
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// maxRequestBytes bounds a request body. The largest single job in the
// repository is an inline source at 16x table scale (cmp, 2.6 MB; the
// largest inline .msb is 0.7 MB in base64), so this is an order of
// magnitude of margin and still a small fraction of a daemon's memory.
const maxRequestBytes = 32 << 20

// decodeBody decodes a request's JSON body into v, reading at most
// maxRequestBytes of it. On failure it has answered — 413 for a body over
// the bound, 400 for one that does not decode, which includes a field
// the API does not have — and returns false.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	var tooLarge *http.MaxBytesError
	switch {
	case err == nil:
		return true
	case errors.As(err, &tooLarge):
		httpError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooLarge.Limit)
	default:
		httpError(w, http.StatusBadRequest, "decoding request: %v", err)
	}
	return false
}

// clientID names the fairness bucket: the request's explicit client
// field when present, else the remote host.
func clientID(explicit string, r *http.Request) string {
	if explicit != "" {
		return explicit
	}
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil && host != "" {
		return host
	}
	if r.RemoteAddr != "" {
		return r.RemoteAddr
	}
	return "anonymous"
}

// writeResult writes a job's response: the bytes sealed when it
// executed, with this retrieval's cached flag in place of "false" —
// no encoding, no copy.
func writeResult(w http.ResponseWriter, r *Result) {
	at := cachedAt(r.Key)
	flag := "false"
	if r.Cached {
		flag = "true"
	}
	rest := r.wire[at+len("false"):]
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(at+len(flag)+len(rest)))
	// The status is sent with the first write, so a failed write has no
	// answer left to change.
	w.Write(r.wire[:at])
	io.WriteString(w, flag)
	w.Write(rest)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		httpError(w, http.StatusInternalServerError, "encoding response: %v", err)
	}
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	data, _ := json.Marshal(map[string]string{"error": fmt.Sprintf(format, args...)})
	w.Write(append(data, '\n'))
}
