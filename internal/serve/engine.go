// Package serve turns the simulator into servable surface: a
// transport-agnostic job engine that accepts assemble/simulate/trace
// jobs (internal/job specs), answers duplicates from a content-addressed
// result cache (a job.Store — in-memory LRU with single-flight admission
// — over an on-disk spill), bounds concurrent executions with per-client
// fair queueing, and exposes HTTP/JSON handlers plus metrics on top. cmd/msserve is the
// daemon; the root package's SubmitJob is the in-process facade. See
// docs/serve.md.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync/atomic"

	"multiscalar/internal/core"
	"multiscalar/internal/job"
	"multiscalar/internal/sample"
)

// Result is what a job submission returns. The same key always carries
// a byte-identical payload; only Cached varies per retrieval (false
// exactly once, on the submission that executed the job).
//
// The submission that executed the job gets the typed payload fields. A
// cached result — a memory or a spill hit alike — carries only Key,
// Cached and its encoded bytes: a hit written to /v1/jobs never needs
// more, and SubmitDecoded fills the rest for a reader that does.
type Result struct {
	Key    string `json:"key"`
	Cached bool   `json:"cached"`
	Op     string `json:"op"`

	Sim      *core.Result     `json:"sim,omitempty"`      // simulate jobs
	Sampled  *sample.Estimate `json:"sampled,omitempty"`  // sampled jobs
	Program  []byte           `json:"program,omitempty"`  // assemble jobs: .msb bytes
	Trace    []byte           `json:"trace,omitempty"`    // .mstrc artifact
	Snapshot []byte           `json:"snapshot,omitempty"` // finished-machine snapshot

	// wire is the result's /v1/jobs response, encoded once when the job
	// executed: the JSON with "cached":false at cachedAt(Key), and the
	// trailing newline. It is all the cache and the spill keep, and every
	// answer writes it.
	wire []byte
}

// withCached returns a shallow copy with the per-retrieval flag set; the
// stored canonical result is never mutated.
func (r *Result) withCached(hit bool) *Result {
	cp := *r
	cp.Cached = hit
	return &cp
}

// A sealed result's bytes open with its key and then the cached flag, so
// the flag's value sits at a fixed offset.
const keyOpen, cachedOpen = `{"key":"`, `","cached":`

// cachedAt is where the cached flag's value starts in key's sealed bytes.
func cachedAt(key string) int { return len(keyOpen) + len(key) + len(cachedOpen) }

// sealedFor reports whether b opens as key's sealed bytes do.
func sealedFor(b []byte, key string) bool {
	return bytes.HasPrefix(b, []byte(keyOpen+key+cachedOpen+"false,"))
}

// seal encodes the freshly executed result once, as writeJSON would
// write it, and keeps the bytes.
func (r *Result) seal() error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(r); err != nil {
		return fmt.Errorf("encoding result: %w", err)
	}
	if !sealedFor(buf.Bytes(), r.Key) {
		return fmt.Errorf("encoding result: key %q does not open the encoding", r.Key)
	}
	r.wire = buf.Bytes()
	return nil
}

// decode fills the typed payload fields (Op, Sim, Sampled, Program,
// Trace, Snapshot) of a cached result from the bytes it is served as.
// On a result that already has them — the executing submission's, or
// one decoded before — it does nothing. Cached is left as the retrieval
// set it.
func (r *Result) decode() error {
	if r.Op != "" {
		return nil
	}
	var typed Result
	if err := json.Unmarshal(r.wire, &typed); err != nil {
		return fmt.Errorf("decoding result %s: %w", r.Key, err)
	}
	r.Op, r.Sim, r.Sampled = typed.Op, typed.Sim, typed.Sampled
	r.Program, r.Trace, r.Snapshot = typed.Program, typed.Trace, typed.Snapshot
	return nil
}

// SubmitDecoded submits spec to e and returns the result with its typed
// payload fields filled, decoding a cached result's bytes: what an
// in-process reader of Sim, Trace and the rest calls.
func SubmitDecoded(ctx context.Context, e Engine, client string, spec *job.Spec) (*Result, error) {
	res, err := e.Submit(ctx, client, spec)
	if err == nil {
		err = res.decode()
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Metrics is the engine's counter snapshot (the /v1/metrics payload).
type Metrics struct {
	Jobs      uint64 `json:"jobs"`       // submissions received
	Executed  uint64 `json:"executed"`   // jobs that actually ran a build/simulation
	CacheHits uint64 `json:"cache_hits"` // answered from memory or a single-flight wait
	DiskHits  uint64 `json:"disk_hits"`  // restored from the on-disk spill
	Errors    uint64 `json:"errors"`
	Evictions uint64 `json:"evictions"`
	Spilled   uint64 `json:"spilled"`

	QueueDepth   int `json:"queue_depth"`   // executions waiting for a slot
	InFlight     int `json:"in_flight"`     // executions running now
	CacheEntries int `json:"cache_entries"` // resident results
}

// Engine is the transport-agnostic job service: the HTTP layer, the CLI,
// and the in-process facade all speak to this interface.
type Engine interface {
	// Submit runs one job (or answers it from cache) on behalf of a
	// client and returns its result. Identical specs — equal job keys —
	// are answered from the content-addressed cache with byte-identical
	// payloads; Result.Cached reports whether this submission executed.
	// Only the executing submission's result has typed payload fields;
	// a cached one is its encoded bytes (see Result, SubmitDecoded).
	Submit(ctx context.Context, client string, spec *job.Spec) (*Result, error)
	// Metrics snapshots the engine counters.
	Metrics() Metrics
}

// Options configures a Local engine. Zero values pick serving defaults.
type Options struct {
	// CacheEntries bounds the in-memory LRU (default 512 results).
	CacheEntries int
	// SpillDir, when set, persists every finished result to disk keyed
	// by job hash; evicted (or post-restart) keys are answered from it.
	SpillDir string
	// PerClientInFlight bounds one client's concurrently executing jobs
	// (default 2), so a flood from one client cannot occupy every slot.
	PerClientInFlight int
}

// Local is the in-process Engine implementation.
type Local struct {
	cache *job.Store[*Result] // encoded results by job key: Key and wire only
	spill spill
	queue *fairQueue

	// aliases maps the SHA-256 of a /v1/jobs body to its job key, filled
	// by the body's first successful decode: a repeated body is keyed
	// without being decoded (see serveJob).
	aliases *job.Store[string]

	// runJob executes a cache-missed job; swapped in tests.
	runJob func(*job.Spec) (*job.Output, error)

	jobs, executed, hits, diskHits, errs, spilled atomic.Uint64
}

// aliasesPerResult sizes the alias table against the result cache: room
// for a few request spellings (client names, field order) of every
// resident result and as many again of spilled ones, at about 100 bytes
// an entry.
const aliasesPerResult = 4

// NewLocal builds an engine over the real executor (job.Execute). It
// executes at most job.Workers() jobs at once, the budget as it stands
// when the engine is built.
func NewLocal(o Options) *Local {
	if o.CacheEntries <= 0 {
		o.CacheEntries = 512
	}
	if o.PerClientInFlight <= 0 {
		o.PerClientInFlight = 2
	}
	return &Local{
		cache:   job.NewStore[*Result](o.CacheEntries),
		spill:   spill(o.SpillDir),
		queue:   newFairQueue(job.Workers(), o.PerClientInFlight),
		aliases: job.NewStore[string](aliasesPerResult * o.CacheEntries),
		runJob:  func(s *job.Spec) (*job.Output, error) { return job.Execute(s, nil) },
	}
}

// Submit implements Engine. A simulate job is judged whatever its
// Verify says, as a decoded wire job is, so both spellings are one key.
func (l *Local) Submit(ctx context.Context, client string, spec *job.Spec) (*Result, error) {
	if spec.Op == job.OpSimulate && !spec.Verify {
		judged := *spec
		judged.Verify = true
		spec = &judged
	}
	key, err := spec.Key()
	if err != nil {
		l.jobs.Add(1)
		l.errs.Add(1)
		return nil, err
	}
	return l.submitKey(ctx, key, func() (*job.Spec, string, error) { return spec, client, nil })
}

// submitKey answers the job whose key is key. decode yields its spec and
// the submitting client, and is called only on the miss path — the key
// neither resident nor spilled — so a held result is answered without
// the spec.
func (l *Local) submitKey(ctx context.Context, key string, decode func() (*job.Spec, string, error)) (*Result, error) {
	l.jobs.Add(1)
	// A resident key or a coalesced duplicate is a hit; the first
	// submission of a key runs the miss path below, single-flight, and
	// keeps the typed result in ran when it executes the job.
	fromDisk := false
	var ran *Result
	res, _, err := l.cache.Do(ctx, key, func() (*Result, error) {
		// The spill answers before a slot is taken — restoring a result
		// from disk is a read, not a simulation.
		if res := l.spill.load(key); res != nil {
			fromDisk = true
			return res, nil
		}
		spec, client, err := decode()
		if err != nil {
			return nil, err
		}
		if err := l.queue.acquire(ctx, client); err != nil {
			return nil, err
		}
		// The slot comes back on every exit, and a panicking job is this
		// flight's error: not cached, and the next submission retries.
		var out *job.Output
		err = job.Contain(func() (err error) {
			defer l.queue.release(client)
			out, err = l.runJob(spec)
			return err
		})
		if err != nil {
			return nil, err
		}
		l.executed.Add(1)
		ran = &Result{
			Key:      key,
			Op:       spec.Op.String(),
			Sim:      out.Result,
			Sampled:  out.Sampled,
			Program:  out.Program,
			Trace:    out.Trace,
			Snapshot: out.Snapshot,
		}
		if err := ran.seal(); err != nil {
			return nil, err
		}
		if l.spill.store(ran) {
			l.spilled.Add(1)
		}
		return &Result{Key: key, wire: ran.wire}, nil
	})
	switch {
	case err != nil:
		l.errs.Add(1)
		return nil, err
	case ran != nil:
		return ran, nil
	case fromDisk:
		l.diskHits.Add(1)
	default:
		l.hits.Add(1)
	}
	return res.withCached(true), nil
}

// Metrics implements Engine.
func (l *Local) Metrics() Metrics {
	st := l.cache.Stats()
	return Metrics{
		Jobs:         l.jobs.Load(),
		Executed:     l.executed.Load(),
		CacheHits:    l.hits.Load(),
		DiskHits:     l.diskHits.Load(),
		Errors:       l.errs.Load(),
		Evictions:    st.Evictions,
		Spilled:      l.spilled.Load(),
		QueueDepth:   l.queue.queueDepth(),
		InFlight:     l.queue.inFlight(),
		CacheEntries: st.Entries,
	}
}
