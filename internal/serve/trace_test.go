package serve

// Request-tracing tests for the serving path: traceparent propagation,
// span-tree capture through the middleware + handler chain, the sampling
// sinks, and — most load-bearing — the bit-identity contract: response
// BODIES are identical with tracing on or off, sequentially and under
// concurrency (run with -race).

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"darklight/internal/obs"
	"darklight/internal/obs/reqtrace"
)

// tracedService builds the fixture service with a Trace recorder attached.
func tracedService(t testing.TB, clock Clock, opts reqtrace.Options, mutate func(*Config)) (*Service, *reqtrace.Recorder) {
	t.Helper()
	rec := reqtrace.NewRecorder(opts)
	svc := newTestService(t, clock, func(c *Config) {
		c.Trace = rec
		if mutate != nil {
			mutate(c)
		}
	})
	return svc, rec
}

// findSpan returns the first child (recursively) of d named name.
func findSpan(d *obs.SpanData, name string) *obs.SpanData {
	for i := range d.Children {
		if d.Children[i].Name == name {
			return &d.Children[i]
		}
		if got := findSpan(&d.Children[i], name); got != nil {
			return got
		}
	}
	return nil
}

// TestTraceEndToEnd drives one /v1/rank request with an inbound sampled
// traceparent through the full chain and retrieves the span tree from
// /debug/traces/{id}: the inbound trace id must carry through to the
// response header and the retained trace, the hop must mint a fresh span
// id, and the tree must show every middleware stage plus the handler's
// decision payload.
func TestTraceEndToEnd(t *testing.T) {
	const inboundTrace = "0af7651916cd43dd8448eb211c80319c"
	const inboundSpan = "b7ad6b7169203331"
	svc, rec := tracedService(t, newFakeClock(), reqtrace.Options{}, nil)

	req := httptest.NewRequest(http.MethodPost, "/v1/rank",
		bytes.NewReader([]byte(`{"subject":{"alias":"q_alice"},"k":3}`)))
	req.Header.Set("X-API-Key", "test-key")
	req.Header.Set(reqtrace.Header, "00-"+inboundTrace+"-"+inboundSpan+"-01")
	w := httptest.NewRecorder()
	svc.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("rank: %d %s", w.Code, w.Body.String())
	}

	tp := w.Header().Get(reqtrace.Header)
	if !strings.HasPrefix(tp, "00-"+inboundTrace+"-") || !strings.HasSuffix(tp, "-01") {
		t.Fatalf("response traceparent %q does not carry the inbound trace id with the sampled flag", tp)
	}
	hopSpan := strings.TrimSuffix(strings.TrimPrefix(tp, "00-"+inboundTrace+"-"), "-01")
	if len(hopSpan) != 16 || hopSpan == inboundSpan {
		t.Fatalf("hop span id %q: want a fresh 16-hex id distinct from the caller's", hopSpan)
	}
	if got := w.Header().Get(reqtrace.RequestIDHeader); got != "r00000001" {
		t.Fatalf("request id %q, want r00000001", got)
	}

	// The inbound sampled flag forces retention: the trace must be
	// retrievable by its id from the debug handler.
	dbg := httptest.NewRecorder()
	rec.Handler().ServeHTTP(dbg, httptest.NewRequest(http.MethodGet, "/debug/traces/"+inboundTrace, nil))
	if dbg.Code != http.StatusOK {
		t.Fatalf("/debug/traces/{id}: %d %s", dbg.Code, dbg.Body.String())
	}
	var tr reqtrace.Trace
	if err := json.Unmarshal(dbg.Body.Bytes(), &tr); err != nil {
		t.Fatalf("decode trace: %v", err)
	}
	if tr.TraceID != inboundTrace || tr.ParentID != inboundSpan {
		t.Fatalf("trace identity: got (%s parent %s)", tr.TraceID, tr.ParentID)
	}
	if tr.Endpoint != "rank" || tr.Method != http.MethodPost || tr.Code != http.StatusOK {
		t.Fatalf("trace outcome: %+v", tr)
	}
	if tr.Sampled != "inbound" {
		t.Fatalf("sampled reason %q, want inbound", tr.Sampled)
	}
	if tr.Bytes != w.Body.Len() {
		t.Fatalf("trace bytes %d, response body %d", tr.Bytes, w.Body.Len())
	}
	if len(tr.Spans) != 1 || tr.Spans[0].Name != "serve" {
		t.Fatalf("want exactly one root span named serve, got %+v", tr.Spans)
	}
	root := &tr.Spans[0]
	if root.Attrs["endpoint"] != "rank" || root.Attrs["code"] != "200" {
		t.Fatalf("root attrs %v", root.Attrs)
	}
	for _, stage := range []string{"auth", "ratelimit", "decode", "rank"} {
		if findSpan(root, stage) == nil {
			t.Fatalf("stage span %q missing from tree %+v", stage, root)
		}
	}
	rank := findSpan(root, "rank")
	if rank.Attrs["index_version"] != "1" {
		t.Fatalf("rank attrs %v", rank.Attrs)
	}
	if findSpan(rank, "resolve") == nil {
		t.Fatalf("resolve span missing under rank: %+v", rank)
	}
	pf := findSpan(rank, "prefilter")
	if pf == nil {
		t.Fatalf("prefilter span missing under rank: %+v", rank)
	}
	for _, key := range []string{"mode", "candidates", "pruned", "evictions"} {
		if _, ok := pf.Attrs[key]; !ok {
			t.Fatalf("prefilter span lacks %q: %v", key, pf.Attrs)
		}
	}
	if pf.Items == 0 {
		t.Fatal("prefilter span scored zero candidates")
	}

	// The listing names the same trace without its span tree.
	list := httptest.NewRecorder()
	rec.Handler().ServeHTTP(list, httptest.NewRequest(http.MethodGet, "/debug/traces", nil))
	var body struct {
		Retained uint64             `json:"retained"`
		Traces   []reqtrace.Summary `json:"traces"`
	}
	if err := json.Unmarshal(list.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.Retained != 1 || len(body.Traces) != 1 || body.Traces[0].TraceID != inboundTrace {
		t.Fatalf("listing: %s", list.Body.String())
	}
}

// traceIdentityRequests is the request matrix the bit-identity test runs:
// every endpoint, rank at two k overrides, and representative rejections.
var traceIdentityRequests = []struct {
	name, method, path, key string
	body                    string
}{
	{"rank-legacy", http.MethodPost, "/v1/rank", "test-key", `{"subject":{"alias":"q_alice"},"k":3}`},
	{"rank-k", http.MethodPost, "/v1/rank", "test-key", `{"subject":{"alias":"q_dave"},"k":2}`},
	{"rescore", http.MethodPost, "/v1/rescore", "test-key", `{"subject":{"alias":"q_alice"},"candidates":["alice","bob"]}`},
	{"match", http.MethodPost, "/v1/match", "test-key", `{"subject":{"alias":"q_dave"}}`},
	{"healthz", http.MethodGet, "/v1/healthz", "", ``},
	{"unknown-alias", http.MethodPost, "/v1/rank", "test-key", `{"subject":{"alias":"nobody"}}`},
	{"bad-key", http.MethodPost, "/v1/rank", "wrong-key", `{"subject":{"alias":"q_alice"}}`},
	{"bad-method", http.MethodGet, "/v1/rank", "test-key", ``},
	{"bad-json", http.MethodPost, "/v1/match", "test-key", `{"subject":`},
}

// TestTraceBitIdentity pins the zero-observable-cost contract: a traced
// service and an untraced service over the same corpus serve byte-identical
// response bodies for every request shape — only the two trace response
// headers differ. The concurrent pass re-checks the same bodies from racing
// goroutines (meaningful under -race).
func TestTraceBitIdentity(t *testing.T) {
	traced, _ := tracedService(t, newFakeClock(), reqtrace.Options{SampleRate: 1}, nil)
	plain := newTestService(t, newFakeClock(), nil)
	th, ph := traced.Handler(), plain.Handler()

	want := make(map[string]*httptest.ResponseRecorder, len(traceIdentityRequests))
	for _, rq := range traceIdentityRequests {
		pw := do(ph, rq.method, rq.path, rq.key, []byte(rq.body))
		tw := do(th, rq.method, rq.path, rq.key, []byte(rq.body))
		if tw.Code != pw.Code || tw.Body.String() != pw.Body.String() {
			t.Fatalf("%s: traced (%d) %q vs untraced (%d) %q",
				rq.name, tw.Code, tw.Body.String(), pw.Code, pw.Body.String())
		}
		if pw.Header().Get(reqtrace.Header) != "" || pw.Header().Get(reqtrace.RequestIDHeader) != "" {
			t.Fatalf("%s: untraced response grew trace headers", rq.name)
		}
		if tw.Header().Get(reqtrace.Header) == "" || tw.Header().Get(reqtrace.RequestIDHeader) == "" {
			t.Fatalf("%s: traced response lacks trace headers", rq.name)
		}
		want[rq.name] = pw
	}

	var wg sync.WaitGroup
	var diverged atomic.Int64
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				rq := traceIdentityRequests[i%len(traceIdentityRequests)]
				tw := do(th, rq.method, rq.path, rq.key, []byte(rq.body))
				pw := want[rq.name]
				if tw.Code != pw.Code || tw.Body.String() != pw.Body.String() {
					diverged.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if n := diverged.Load(); n != 0 {
		t.Fatalf("%d concurrent traced responses diverged from the untraced bodies", n)
	}
}

// TestTraceSlowSampling checks the always-keep-slow rule end to end: with
// probabilistic sampling off, only the request whose (fake-clock) duration
// crosses Options.Slow lands in the ring, tagged "slow".
func TestTraceSlowSampling(t *testing.T) {
	clock := newFakeClock()
	var stall atomic.Int64 // milliseconds the next request takes
	svc, rec := tracedService(t, clock, reqtrace.Options{Slow: 100 * time.Millisecond}, nil)
	svc.hookInflight = func(string) {
		clock.Advance(time.Duration(stall.Load()) * time.Millisecond)
	}

	stall.Store(5)
	if w := do(svc.Handler(), http.MethodPost, "/v1/rank", "test-key", []byte(`{"subject":{"alias":"q_alice"}}`)); w.Code != 200 {
		t.Fatalf("fast request: %d", w.Code)
	}
	stall.Store(200)
	slow := do(svc.Handler(), http.MethodPost, "/v1/match", "test-key", []byte(`{"subject":{"alias":"q_dave"}}`))
	if slow.Code != 200 {
		t.Fatalf("slow request: %d", slow.Code)
	}

	list := httptest.NewRecorder()
	rec.Handler().ServeHTTP(list, httptest.NewRequest(http.MethodGet, "/debug/traces", nil))
	var body struct {
		Retained uint64             `json:"retained"`
		Traces   []reqtrace.Summary `json:"traces"`
	}
	if err := json.Unmarshal(list.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.Retained != 1 || len(body.Traces) != 1 {
		t.Fatalf("want exactly the slow request retained, got %s", list.Body.String())
	}
	got := body.Traces[0]
	if got.Sampled != "slow" || got.Endpoint != "match" || got.DurNS != (200*time.Millisecond).Nanoseconds() {
		t.Fatalf("retained trace %+v", got)
	}
}

// TestHealthzProvenance checks the reload counter and the store journal
// sequence surface through /v1/healthz: the initial load counts as reload
// 1, a Reload bumps it, and the loader's LastJournalSeq is copied (not
// aliased) into each snapshot.
func TestHealthzProvenance(t *testing.T) {
	seq := uint64(41)
	corpus := testCorpus(t)
	svc := newTestService(t, newFakeClock(), func(c *Config) {
		c.Loader = func(context.Context) (*Corpus, error) {
			return &Corpus{Known: corpus.Known, Query: corpus.Query, LastJournalSeq: &seq}, nil
		}
	})

	check := func(wantReloads int, wantSeq uint64) {
		t.Helper()
		w := do(svc.Handler(), http.MethodGet, "/v1/healthz", "", nil)
		var h HealthResponse
		if err := json.Unmarshal(w.Body.Bytes(), &h); err != nil {
			t.Fatal(err)
		}
		if h.Reloads != wantReloads {
			t.Fatalf("reloads %d, want %d", h.Reloads, wantReloads)
		}
		if h.LastJournalSeq == nil || *h.LastJournalSeq != wantSeq {
			t.Fatalf("last_journal_seq %v, want %d", h.LastJournalSeq, wantSeq)
		}
		if !strings.Contains(w.Body.String(), `"last_journal_seq":`+fmt.Sprint(wantSeq)) {
			t.Fatalf("wire body lacks the journal seq: %s", w.Body.String())
		}
	}
	check(1, 41)
	seq = 42 // the loader mutating its variable must not leak into the live snapshot...
	check(1, 41)
	if err := svc.Reload(context.Background()); err != nil { // ...until a reload installs it
		t.Fatal(err)
	}
	check(2, 42)
}

// TestServeAccessLog checks the access-log sink through the real serving
// path: one line per request, id first, the trace id as the correlation
// key, and the per-stage breakdown naming every stage the request ran.
func TestServeAccessLog(t *testing.T) {
	var buf bytes.Buffer
	svc, _ := tracedService(t, newFakeClock(), reqtrace.Options{AccessLog: &buf}, nil)
	if w := do(svc.Handler(), http.MethodPost, "/v1/rank", "test-key", []byte(`{"subject":{"alias":"q_alice"}}`)); w.Code != 200 {
		t.Fatalf("rank: %d", w.Code)
	}

	line := buf.String()
	if !strings.HasSuffix(line, "\n") || strings.Count(line, "\n") != 1 {
		t.Fatalf("want exactly one JSONL line, got %q", line)
	}
	if !strings.HasPrefix(line, `{"id":"r00000001","trace":"`) {
		t.Fatalf("field order broken: %q", line)
	}
	var entry reqtrace.AccessEntry
	if err := json.Unmarshal([]byte(line), &entry); err != nil {
		t.Fatal(err)
	}
	if entry.Method != http.MethodPost || entry.Endpoint != "rank" || entry.Code != 200 || entry.Bytes == 0 {
		t.Fatalf("entry %+v", entry)
	}
	var names []string
	for _, s := range entry.Stages {
		names = append(names, s.Name)
	}
	want := []string{"auth", "decode", "prefilter", "rank", "ratelimit", "resolve", "serve"}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Fatalf("stages %v, want %v (name-sorted)", names, want)
	}
}

// TestLatencyHistogram drives requests with injected durations 1..100 ms
// and checks the per-endpoint serve_request_seconds histogram counts every
// one at its injected duration. The histogram works with tracing disabled:
// the middleware feeds it from the service clock, not the recorder.
func TestLatencyHistogram(t *testing.T) {
	clock := newFakeClock()
	var reg *obs.Registry
	svc := newTestService(t, clock, func(c *Config) { reg = c.Registry })
	var i atomic.Int64
	svc.hookInflight = func(string) {
		clock.Advance(time.Duration(i.Add(1)) * time.Millisecond)
	}
	h := svc.Handler()
	for n := 0; n < 100; n++ {
		if w := do(h, http.MethodGet, "/v1/healthz", "", nil); w.Code != 200 {
			t.Fatalf("healthz: %d", w.Code)
		}
	}

	for _, fam := range reg.Snapshot() {
		if fam.Name != "serve_request_seconds" {
			continue
		}
		for _, s := range fam.Series {
			if s.Labels["endpoint"] != "healthz" {
				continue
			}
			const eps = 1e-9
			if s.Count != 100 || s.Value < 5.050-eps || s.Value > 5.050+eps {
				t.Fatalf("healthz latency: %d observations summing to %v s, want 100 summing to 5.050 s", s.Count, s.Value)
			}
			return
		}
	}
	t.Fatal(`serve_request_seconds{endpoint="healthz"} not in registry`)
}
