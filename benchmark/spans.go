package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Parent is the span
// that caused it (0 for a root); Req groups the spans of one pass or one
// HTTP request.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Req    string `json:"req,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil *recorder is
// the untraced run: begin and end do nothing, so call sites need no
// branch and the untraced path pays one nil check.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its id (0 when not tracing).
func (r *recorder) begin(name string, parent int, req string) int {
	if r == nil {
		return 0
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	id := len(r.spans) + 1
	if req == "" && parent > 0 {
		req = r.spans[parent-1].Req // a request's spans share its identifier
	}
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Req: req, Start: now})
	r.mu.Unlock()
	return id
}

func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// add records an interval measured elsewhere (a child process's own
// section timer), placed at an offset inside its parent.
func (r *recorder) add(name string, parent int, req string, start, end int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name, Req: req, Start: start, End: end})
	r.mu.Unlock()
}

// startOf reads back a span's start, for placing add()ed children.
func (r *recorder) startOf(id int) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans[id-1].Start
}

func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

func (r *recorder) write(path string) error {
	data, err := json.Marshal(r.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes returns each span's self time — its duration minus the part
// of it its direct children cover (children may overlap one another, so
// coverage is the union of their intervals clipped to the parent) — in
// the order of spans, and the summed duration of the root spans. With
// properly nested spans the self times add up to that total exactly. A
// span that never ended (a failed run) has self time 0.
func selfTimes(spans []span) (self []int64, rootTotal int64) {
	children := map[int][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self = make([]int64, len(spans))
	for i, s := range spans {
		dur := s.End - s.Start
		if dur < 0 {
			continue
		}
		if s.Parent == 0 {
			rootTotal += dur
		}
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = dur - covered
	}
	return self, rootTotal
}
