package obs

import (
	"context"
	"encoding/json"
	"io"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Tracer collects hierarchical spans for one run. A nil tracer (no
// WithTracer on the context) disables tracing entirely: Start returns the
// context unchanged and a nil span whose methods are no-ops.
//
// Spans accumulate in memory until exported (Snapshot, Stages,
// WriteJSONL); a long-lived process that traces continuously should Reset
// between runs.
type Tracer struct {
	mu    sync.Mutex
	roots []*Span
}

// NewTracer returns an empty tracer.
func NewTracer() *Tracer { return &Tracer{} }

type tracerKey struct{}
type spanKey struct{}

// WithTracer enables tracing on the context.
func WithTracer(ctx context.Context, t *Tracer) context.Context {
	return context.WithValue(ctx, tracerKey{}, t)
}

// TracerFrom returns the context's tracer, or nil when tracing is off.
func TracerFrom(ctx context.Context) *Tracer {
	t, _ := ctx.Value(tracerKey{}).(*Tracer)
	return t
}

// Span is one timed stage of the pipeline. All methods are safe on a nil
// receiver (the disabled-tracing case) and safe for concurrent use —
// parallel workers may AddItems on a shared parent while children start
// and end underneath it.
type Span struct {
	tracer *Tracer
	name   string
	start  time.Time
	items  atomic.Int64
	bytes  atomic.Int64

	mu       sync.Mutex
	end      time.Time
	attrs    []attr
	children []*Span
}

type attr struct{ key, val string }

// Start begins a span named name. The span nests under the context's
// current span when one exists, otherwise it becomes a new root of the
// context's tracer. Without a tracer the context is returned unchanged
// and the span is nil — the zero-cost disabled path.
func Start(ctx context.Context, name string) (context.Context, *Span) {
	parent, _ := ctx.Value(spanKey{}).(*Span)
	var t *Tracer
	if parent != nil {
		t = parent.tracer
	} else if t = TracerFrom(ctx); t == nil {
		return ctx, nil
	}
	s := &Span{tracer: t, name: name, start: time.Now()}
	if parent != nil {
		parent.mu.Lock()
		parent.children = append(parent.children, s)
		parent.mu.Unlock()
	} else {
		t.mu.Lock()
		t.roots = append(t.roots, s)
		t.mu.Unlock()
	}
	return context.WithValue(ctx, spanKey{}, s), s
}

// End stamps the span's completion time. Ending twice keeps the first
// stamp.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.end.IsZero() {
		s.end = time.Now()
	}
	s.mu.Unlock()
}

// AddItems adds to the span's processed-item count.
func (s *Span) AddItems(n int64) {
	if s != nil {
		s.items.Add(n)
	}
}

// AddBytes adds to the span's processed-byte count.
func (s *Span) AddBytes(n int64) {
	if s != nil {
		s.bytes.Add(n)
	}
}

// SetAttr sets (or replaces) a string attribute.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.attrs {
		if s.attrs[i].key == key {
			s.attrs[i].val = value
			return
		}
	}
	s.attrs = append(s.attrs, attr{key, value})
}

// SetWorker records which worker of a fan-out ran this span.
func (s *Span) SetWorker(w int) { s.SetAttr("worker", strconv.Itoa(w)) }

// SpanData is an exported span. Durations are the only time-derived
// values; absolute timestamps stay out of manifests (the JSONL trace
// carries them for timeline reconstruction).
type SpanData struct {
	Name     string            `json:"name"`
	DurNS    int64             `json:"dur_ns"`
	Items    int64             `json:"items,omitempty"`
	Bytes    int64             `json:"bytes,omitempty"`
	Attrs    map[string]string `json:"attrs,omitempty"`
	Children []SpanData        `json:"children,omitempty"`
}

func (s *Span) export() SpanData {
	s.mu.Lock()
	d := SpanData{Name: s.name, Items: s.items.Load(), Bytes: s.bytes.Load()}
	if !s.end.IsZero() {
		d.DurNS = s.end.Sub(s.start).Nanoseconds()
	}
	if len(s.attrs) > 0 {
		d.Attrs = make(map[string]string, len(s.attrs))
		for _, a := range s.attrs {
			d.Attrs[a.key] = a.val
		}
	}
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	for _, c := range children {
		d.Children = append(d.Children, c.export())
	}
	return d
}

// Snapshot exports the full span forest. Unfinished spans report a zero
// duration.
func (t *Tracer) Snapshot() []SpanData {
	t.mu.Lock()
	roots := append([]*Span(nil), t.roots...)
	t.mu.Unlock()
	out := make([]SpanData, 0, len(roots))
	for _, r := range roots {
		out = append(out, r.export())
	}
	return out
}

// Reset drops every collected span.
func (t *Tracer) Reset() {
	t.mu.Lock()
	t.roots = nil
	t.mu.Unlock()
}

// StageSummary aggregates every span sharing one name: how many ran, the
// summed wall duration, and the summed item/byte counts. Summaries are
// what manifests embed — compact and name-ordered regardless of how the
// concurrent span forest interleaved.
type StageSummary struct {
	Name  string `json:"name"`
	Count int64  `json:"count"`
	DurNS int64  `json:"dur_ns"`
	Items int64  `json:"items,omitempty"`
	Bytes int64  `json:"bytes,omitempty"`
}

// Stages aggregates the span forest by span name, sorted by name. It walks
// the live spans directly — no SpanData export, no attribute maps — and
// distinct names per tree are few, so the lookup is a linear scan rather
// than a map.
func (t *Tracer) Stages() []StageSummary {
	var dst []StageSummary
	t.mu.Lock()
	for _, r := range t.roots {
		dst = appendStage(dst, r)
	}
	t.mu.Unlock()
	sort.Slice(dst, func(i, j int) bool { return dst[i].Name < dst[j].Name })
	return dst
}

// appendStage folds one span (and its subtree) into dst. Parent-to-child
// lock order matches every other acquisition in this file, so holding
// the parent's lock across the recursion cannot deadlock.
func appendStage(dst []StageSummary, s *Span) []StageSummary {
	s.mu.Lock()
	defer s.mu.Unlock()
	i := 0
	for ; i < len(dst); i++ {
		if dst[i].Name == s.name {
			break
		}
	}
	if i == len(dst) {
		dst = append(dst, StageSummary{Name: s.name})
	}
	dst[i].Count++
	if !s.end.IsZero() {
		dst[i].DurNS += s.end.Sub(s.start).Nanoseconds()
	}
	dst[i].Items += s.items.Load()
	dst[i].Bytes += s.bytes.Load()
	for _, c := range s.children {
		dst = appendStage(dst, c)
	}
	return dst
}

// traceLine is the JSONL trace record: parent links by id, depth-first
// ids, absolute start for timeline tools.
type traceLine struct {
	ID          int               `json:"id"`
	Parent      int               `json:"parent,omitempty"`
	Name        string            `json:"name"`
	StartUnixNS int64             `json:"start_unix_ns"`
	DurNS       int64             `json:"dur_ns"`
	Items       int64             `json:"items,omitempty"`
	Bytes       int64             `json:"bytes,omitempty"`
	Attrs       map[string]string `json:"attrs,omitempty"`
}

// WriteJSONL exports the span forest as one JSON object per line,
// depth-first, each span carrying its parent's id.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	t.mu.Lock()
	roots := append([]*Span(nil), t.roots...)
	t.mu.Unlock()
	next := 1
	var walk func(s *Span, parent int) error
	walk = func(s *Span, parent int) error {
		s.mu.Lock()
		line := traceLine{
			ID:          next,
			Parent:      parent,
			Name:        s.name,
			StartUnixNS: s.start.UnixNano(),
			Items:       s.items.Load(),
			Bytes:       s.bytes.Load(),
		}
		if !s.end.IsZero() {
			line.DurNS = s.end.Sub(s.start).Nanoseconds()
		}
		if len(s.attrs) > 0 {
			line.Attrs = make(map[string]string, len(s.attrs))
			for _, a := range s.attrs {
				line.Attrs[a.key] = a.val
			}
		}
		children := append([]*Span(nil), s.children...)
		s.mu.Unlock()
		id := next
		next++
		if err := enc.Encode(line); err != nil {
			return err
		}
		for _, c := range children {
			if err := walk(c, id); err != nil {
				return err
			}
		}
		return nil
	}
	for _, r := range roots {
		if err := walk(r, 0); err != nil {
			return err
		}
	}
	return nil
}
