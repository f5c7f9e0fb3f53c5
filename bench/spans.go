package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer: its name ("<module>.<call>"), when
// it ran relative to the recorder's start, the span that caused it (0 for
// a root) and the request it served, if any. Spans live in memory and are
// written out when the traced run ends.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Request string `json:"request,omitempty"`
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
}

func (s *span) duration() time.Duration { return time.Duration(s.End - s.Start) }

// spanRecorder records spans made by one goroutine: the traced run is
// sequential, so the open spans form a stack and the top of the stack is
// the parent of the next span.
type spanRecorder struct {
	t0      time.Time
	spans   []span
	open    []int  // indices into spans of the spans not yet ended
	request string // stamped on spans while set
	// off makes do call straight through, for the spans-off half of the
	// tracing-overhead comparison.
	off bool
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{t0: time.Now()} }

// do runs fn inside a span and returns how long fn took.
func (r *spanRecorder) do(name string, fn func()) time.Duration {
	if r.off {
		start := time.Now()
		fn()
		return time.Since(start)
	}
	parent := 0
	if n := len(r.open); n > 0 {
		parent = r.spans[r.open[n-1]].ID
	}
	i := len(r.spans)
	r.spans = append(r.spans, span{ID: i + 1, Parent: parent, Request: r.request, Name: name})
	r.open = append(r.open, i)
	r.spans[i].Start = int64(time.Since(r.t0))
	fn()
	r.spans[i].End = int64(time.Since(r.t0))
	r.open = r.open[:len(r.open)-1]
	return r.spans[i].duration()
}

// durations returns the duration of every span with the given name, in
// the order they ran.
func (r *spanRecorder) durations(name string) []time.Duration {
	var out []time.Duration
	for i := range r.spans {
		if r.spans[i].Name == name {
			out = append(out, r.spans[i].duration())
		}
	}
	return out
}

// total is the summed duration of the named spans.
func (r *spanRecorder) total(name string) time.Duration {
	var sum time.Duration
	for _, d := range r.durations(name) {
		sum += d
	}
	return sum
}

// selfTimes gives each span's duration minus the part of its interval its
// child spans cover (children that overlap each other are not subtracted
// twice), keyed by span id.
func selfTimes(spans []span) map[int]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
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
		out[s.ID] = time.Duration(s.End - s.Start - covered)
	}
	return out
}

// write dumps the spans as JSON lines.
func (r *spanRecorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
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
