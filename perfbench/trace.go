package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call at a layer boundary. Times are nanoseconds since
// the tracer was created; Parent is 0 for a root span, and spans of one
// request share Req.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// spanRef is an open span; end closes it. The zero spanRef (from a nil
// tracer) is inert.
type spanRef struct {
	t   *tracer
	idx int
}

// start opens a span named name under parent (0 for none) for request req.
func (t *tracer) start(name string, parent, req int64) spanRef {
	if t == nil {
		return spanRef{}
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: now, End: -1})
	return spanRef{t: t, idx: len(t.spans) - 1}
}

// id is the span's identifier, to pass as a child's parent (0 when inert).
func (s spanRef) id() int64 {
	if s.t == nil {
		return 0
	}
	return int64(s.idx + 1)
}

func (s spanRef) end() {
	if s.t == nil {
		return
	}
	now := time.Since(s.t.t0).Nanoseconds()
	s.t.mu.Lock()
	s.t.spans[s.idx].End = now
	s.t.mu.Unlock()
}

// stages records child spans of a finished span s, laid end to end from
// its start: the stage durations a call reported about itself.
func (s spanRef) stages(names []string, durs []time.Duration) {
	if s.t == nil {
		return
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	at := s.t.spans[s.idx].Start
	for i, name := range names {
		id := int64(len(s.t.spans) + 1)
		s.t.spans = append(s.t.spans, span{ID: id, Parent: s.id(), Req: s.t.spans[s.idx].Req, Name: name, Start: at, End: at + durs[i].Nanoseconds()})
		at += durs[i].Nanoseconds()
	}
}

// closed returns a copy of the finished spans.
func (t *tracer) closed() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// durationsUs returns the durations of every finished span named name, in
// microseconds.
func (t *tracer) durationsUs(name string) []float64 {
	var out []float64
	for _, s := range t.closed() {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

// selfTimesUs returns, for every finished span named name, its duration
// minus the part of its interval that its child spans cover, in
// microseconds.
func (t *tracer) selfTimesUs(name string) []float64 {
	spans := t.closed()
	children := map[int64][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			covered := coveredNs(children[s.ID], s.Start, s.End)
			out = append(out, float64(s.End-s.Start-covered)/1e3)
		}
	}
	return out
}

// coveredNs is the length of the union of the intervals, clipped to
// [lo, hi].
func coveredNs(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total int64
	cur := lo
	for _, x := range iv {
		s, e := max(x[0], cur), min(x[1], hi)
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// write stores the finished spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.closed() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
