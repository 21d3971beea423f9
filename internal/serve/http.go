package serve

import (
	"bytes"
	"crypto/sha256"
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
		body, ok := readBody(w, r)
		if !ok {
			return
		}
		if l, ok := e.(*Local); ok {
			l.serveJob(w, r, body)
			return
		}
		client, spec, err := decodeRequest(body)
		if err != nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
		res, err := e.Submit(r.Context(), clientID(client, r), spec)
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

// serveJob answers a /v1/jobs body on l through the alias table: the
// body's SHA-256 names its job key. The first request of a body decodes
// it, keys the spec and submits it inside the alias flight, so identical
// bodies arriving meanwhile wait for that answer rather than decode
// again; a body already aliased goes straight to submitKey, which decodes
// it only when the result is neither resident nor spilled. Identical
// bytes always decode to the same spec, so an alias never names another
// job. A body that does not decode is refused and never aliased.
func (l *Local) serveJob(w http.ResponseWriter, r *http.Request, body []byte) {
	ctx := r.Context()
	var spec *job.Spec
	var client string
	decode := func() (*job.Spec, string, error) { // at most once per request
		if spec == nil {
			named, s, err := decodeRequest(body)
			if err != nil {
				return nil, "", err
			}
			spec, client = s, clientID(named, r)
		}
		return spec, client, nil
	}
	var res *Result
	var err error // the job's, once it is keyed
	submitted := false
	sum := sha256.Sum256(body)
	key, _, aliasErr := l.aliases.Do(ctx, string(sum[:]), func() (string, error) {
		s, _, decodeErr := decode()
		if decodeErr != nil {
			return "", decodeErr
		}
		key, keyErr := s.Key()
		if keyErr != nil {
			return "", keyErr
		}
		submitted = true
		res, err = l.submitKey(ctx, key, decode)
		return key, nil
	})
	var bad *badRequest
	switch {
	case errors.As(aliasErr, &bad):
		httpError(w, http.StatusBadRequest, "%v", aliasErr)
		return
	case aliasErr != nil: // the spec has no key, or the wait was cancelled
		l.jobs.Add(1)
		l.errs.Add(1)
		err = aliasErr
	case !submitted:
		res, err = l.submitKey(ctx, key, decode)
	}
	if err != nil {
		httpError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	writeResult(w, res)
}

// maxRequestBytes bounds a request body. The largest single job in the
// repository is an inline source at 16x table scale (cmp, 2.6 MB; the
// largest inline .msb is 0.7 MB in base64), so this is an order of
// magnitude of margin and still a small fraction of a daemon's memory.
const maxRequestBytes = 32 << 20

// readBody reads a request's body, at most maxRequestBytes of it, into
// one buffer sized from Content-Length (up to a megabyte: a declared
// length is not trusted further). On failure it has answered — 413 for
// a body over the bound, 400 for one that could not be read — and
// returns false.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	size := int64(0)
	if r.ContentLength > 0 {
		size = min(r.ContentLength, 1<<20)
	}
	buf := bytes.NewBuffer(make([]byte, 0, size+bytes.MinRead))
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	var tooLarge *http.MaxBytesError
	switch {
	case err == nil:
		return buf.Bytes(), true
	case errors.As(err, &tooLarge):
		httpError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooLarge.Limit)
	default:
		httpError(w, http.StatusBadRequest, "reading request: %v", err)
	}
	return nil, false
}

// badRequest is a body the API refuses: answered 400, never aliased.
type badRequest struct{ msg string }

func (e *badRequest) Error() string { return e.msg }

// decodeRequest decodes a /v1/jobs body strictly — a field the API does
// not have is refused — into the client it names and the job's spec. Its
// errors are *badRequest.
func decodeRequest(body []byte) (client string, spec *job.Spec, err error) {
	var req SubmitRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return "", nil, &badRequest{"decoding request: " + err.Error()}
	}
	if spec, err = req.Job.Decode(); err != nil {
		return "", nil, &badRequest{"bad job: " + err.Error()}
	}
	return req.Client, spec, nil
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
