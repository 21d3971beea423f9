package job

import (
	"container/list"
	"context"
	"errors"
	"sync"
)

// Store is the one content-keyed cache in the tree: a single-flight LRU
// from key to value. Concurrent Do calls on one key run fn once and share
// its outcome; a finished value stays resident until the store exceeds
// its capacity, when the least recently used finished entry nobody is
// waiting on is dropped. An in-flight or waited-on entry is never
// evicted — the store transiently exceeds its bound rather than corrupt
// a flight — and an error is handed to the flight's waiters but never
// cached, so the next Do retries.
//
// Every cache is an instance: program builds and functional-oracle runs
// (this package), msserve's result cache (internal/serve, with its disk
// spill as the miss path inside fn) and the bench harness's per-point
// results (internal/bench). Stored values are shared between callers and
// must be treated as read-only.
type Store[V any] struct {
	mu      sync.Mutex
	cap     int // resident-entry bound; 0 = unbounded
	entries map[string]*storeEntry[V]
	lru     *list.List // front = most recently used; values are *storeEntry[V]

	hits, runs, evictions uint64
}

type storeEntry[V any] struct {
	key   string
	elem  *list.Element // nil once the entry has left the store
	ready chan struct{} // closed when val/err are final
	done  bool
	val   V
	err   error
	refs  int // Do calls currently holding the entry; pins it against eviction
}

// StoreStats is a store's counter snapshot. The counters only grow;
// Reset empties the entries, not the history.
type StoreStats struct {
	Entries   int    // resident entries, in-flight included
	Hits      uint64 // Do calls that did not run fn (resident or coalesced)
	Runs      uint64 // fn executions (misses)
	Evictions uint64 // finished entries dropped to respect the capacity
}

// errAbandoned is what a flight's waiters see when its fn panicked.
var errAbandoned = errors.New("job: store flight abandoned")

// NewStore returns a store keeping at most capacity finished entries
// (0 = unbounded).
func NewStore[V any](capacity int) *Store[V] {
	return &Store[V]{cap: capacity, entries: map[string]*storeEntry[V]{}, lru: list.New()}
}

// Do returns the value stored under key, running fn to produce it when
// the key is absent. hit reports that this call did not run fn: the value
// was resident, or another call's flight produced it. A waiter whose ctx
// is cancelled returns ctx.Err() without disturbing the flight; fn runs on
// the goroutine of the first Do and is not interrupted.
func (s *Store[V]) Do(ctx context.Context, key string, fn func() (V, error)) (v V, hit bool, err error) {
	s.mu.Lock()
	e := s.entries[key]
	if e == nil {
		e = &storeEntry[V]{key: key, ready: make(chan struct{}), refs: 1}
		e.elem = s.lru.PushFront(e)
		s.entries[key] = e
		s.runs++
		s.mu.Unlock()
		// The flight completes on every exit: a panic in fn wakes the
		// waiters with errAbandoned on its way up instead of stranding them.
		err = errAbandoned
		defer func() { s.release(e, true, v, err) }()
		v, err = fn()
		return v, false, err
	}
	s.hits++
	s.lru.MoveToFront(e.elem)
	if e.done { // resident and final: no reference needed
		s.mu.Unlock()
		return e.val, true, nil
	}
	e.refs++
	s.mu.Unlock()
	select {
	case <-e.ready:
		v, err = e.val, e.err
	case <-ctx.Done():
		err = ctx.Err()
	}
	s.release(e, false, v, nil)
	return v, true, err
}

// release drops the caller's reference — first completing the flight with
// (v, err) when the caller ran it — and trims the store to capacity.
func (s *Store[V]) release(e *storeEntry[V], flight bool, v V, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if flight {
		e.val, e.err, e.done = v, err, true
		if err != nil { // failures leave, so a later Do retries
			s.removeLocked(e)
		}
		close(e.ready)
	}
	e.refs--
	for el := s.lru.Back(); el != nil && s.cap > 0 && s.lru.Len() > s.cap; {
		prev := el.Prev()
		if old := el.Value.(*storeEntry[V]); old.done && old.refs == 0 {
			s.removeLocked(old)
			s.evictions++
		}
		el = prev
	}
}

func (s *Store[V]) removeLocked(e *storeEntry[V]) {
	if e.elem != nil {
		delete(s.entries, e.key)
		s.lru.Remove(e.elem)
		e.elem = nil
	}
}

// Reset empties the store. Flights still running complete for their own
// waiters but their values are not retained.
func (s *Store[V]) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range s.entries {
		e.elem = nil
	}
	s.entries = map[string]*storeEntry[V]{}
	s.lru = list.New()
}

// Stats snapshots the store's counters.
func (s *Store[V]) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return StoreStats{Entries: len(s.entries), Hits: s.hits, Runs: s.runs, Evictions: s.evictions}
}
