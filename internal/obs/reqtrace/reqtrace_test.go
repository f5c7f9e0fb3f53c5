package reqtrace

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"darklight/internal/obs"
)

func TestParseTraceparent(t *testing.T) {
	valid := "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	tid, sid, sampled, ok := parseTraceparent(valid)
	if !ok {
		t.Fatalf("valid header rejected: %s", valid)
	}
	if tid != "0af7651916cd43dd8448eb211c80319c" || sid != "b7ad6b7169203331" || !sampled {
		t.Errorf("parse = (%s, %s, %v)", tid, sid, sampled)
	}
	if _, _, sampled, ok = parseTraceparent("00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-00"); !ok || sampled {
		t.Errorf("flags 00 should parse as unsampled (ok=%v sampled=%v)", ok, sampled)
	}

	bad := []string{
		"",
		"garbage",
		"01-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",  // unknown version
		"00-00000000000000000000000000000000-b7ad6b7169203331-01",  // all-zero trace
		"00-0af7651916cd43dd8448eb211c80319c-0000000000000000-01",  // all-zero span
		"00-0AF7651916CD43DD8448EB211C80319C-b7ad6b7169203331-01",  // uppercase hex
		"00-0af7651916cd43dd8448eb211c80319c-b7ad6b716920333-01",   // short span
		"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01x", // trailing junk
		"00_0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",  // wrong separator
	}
	for _, s := range bad {
		if _, _, _, ok := parseTraceparent(s); ok {
			t.Errorf("malformed header accepted: %q", s)
		}
	}
}

func TestBeginHonorsInboundAndMintsFresh(t *testing.T) {
	rec := NewRecorder(Options{})

	inbound := "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	a := rec.Begin(inbound)
	if a.TraceID != "0af7651916cd43dd8448eb211c80319c" {
		t.Errorf("inbound trace id not adopted: %s", a.TraceID)
	}
	if a.ParentID != "b7ad6b7169203331" {
		t.Errorf("inbound span id not recorded as parent: %s", a.ParentID)
	}
	if a.SpanID == "b7ad6b7169203331" {
		t.Error("this hop must mint a fresh span id, not reuse the caller's")
	}
	out := a.Traceparent()
	if !strings.HasPrefix(out, "00-0af7651916cd43dd8448eb211c80319c-") || !strings.HasSuffix(out, "-01") {
		t.Errorf("outbound header must keep trace id and sampled flag: %s", out)
	}

	b := rec.Begin("")
	if len(b.TraceID) != 32 || len(b.SpanID) != 16 || !isLowerHex(b.TraceID) || !isLowerHex(b.SpanID) {
		t.Errorf("fresh ids malformed: trace=%s span=%s", b.TraceID, b.SpanID)
	}
	if !strings.HasSuffix(b.Traceparent(), "-00") {
		t.Errorf("unsampled fresh request must carry flags 00: %s", b.Traceparent())
	}
	if b.TraceID == a.TraceID {
		t.Error("fresh trace ids must differ per request")
	}
}

func TestRequestIDsAreSequential(t *testing.T) {
	rec := NewRecorder(Options{})
	if got := rec.Begin("").RequestID; got != "r00000001" {
		t.Errorf("first request id = %s, want r00000001", got)
	}
	if got := rec.Begin("").RequestID; got != "r00000002" {
		t.Errorf("second request id = %s, want r00000002", got)
	}
}

func TestNilRecorderAndActiveAreNoops(t *testing.T) {
	var rec *Recorder
	a := rec.Begin("anything")
	if a != nil {
		t.Fatal("nil recorder must return nil Active")
	}
	if got := a.Traceparent(); got != "" {
		t.Errorf("nil Active Traceparent = %q, want empty", got)
	}
	ctx, span := a.Start(context.Background(), "serve")
	if span != nil {
		t.Error("nil Active must not start spans")
	}
	if ctx == nil {
		t.Error("nil Active must pass the context through")
	}
	rec.Finish(a, RequestInfo{}) // must not panic
}

func TestSamplingReasons(t *testing.T) {
	drain := func(rec *Recorder) []*Trace {
		out, _ := rec.ring.list()
		return out
	}

	// Probabilistic: rate 1 keeps everything as "sample".
	rec := NewRecorder(Options{SampleRate: 1})
	rec.Finish(rec.Begin(""), RequestInfo{Endpoint: "/v1/rank", Duration: time.Millisecond})
	if got := drain(rec); len(got) != 1 || got[0].Sampled != "sample" {
		t.Fatalf("rate-1 request not retained as sample: %+v", got)
	}

	// Rate 0: fast request dropped, slow request kept as "slow".
	rec = NewRecorder(Options{Slow: 100 * time.Millisecond})
	rec.Finish(rec.Begin(""), RequestInfo{Duration: time.Millisecond})
	if got := drain(rec); len(got) != 0 {
		t.Fatalf("fast unsampled request retained: %+v", got)
	}
	rec.Finish(rec.Begin(""), RequestInfo{Duration: 250 * time.Millisecond})
	if got := drain(rec); len(got) != 1 || got[0].Sampled != "slow" {
		t.Fatalf("slow request not retained: %+v", got)
	}

	// Inbound sampled flag wins even at rate 0 with no slow threshold.
	rec = NewRecorder(Options{})
	rec.Finish(rec.Begin("00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"), RequestInfo{})
	if got := drain(rec); len(got) != 1 || got[0].Sampled != "inbound" {
		t.Fatalf("inbound-sampled request not retained: %+v", got)
	}

	// Inbound flag 00 donates the trace id but not retention.
	rec = NewRecorder(Options{})
	rec.Finish(rec.Begin("00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-00"), RequestInfo{})
	if got := drain(rec); len(got) != 0 {
		t.Fatalf("unsampled inbound request retained: %+v", got)
	}
}

func TestRingEvictsOldest(t *testing.T) {
	rec := NewRecorder(Options{Ring: 2, SampleRate: 1})
	var ids []string
	for i := 0; i < 3; i++ {
		a := rec.Begin("")
		ids = append(ids, a.TraceID)
		rec.Finish(a, RequestInfo{Endpoint: "/v1/rank"})
	}
	if got := rec.ring.get(ids[0]); got != nil {
		t.Error("oldest trace should have been evicted")
	}
	for _, id := range ids[1:] {
		if rec.ring.get(id) == nil {
			t.Errorf("trace %s missing from ring", id)
		}
	}
	list, total := rec.ring.list()
	if total != 3 {
		t.Errorf("lifetime retained = %d, want 3", total)
	}
	if len(list) != 2 || list[0].TraceID != ids[2] || list[1].TraceID != ids[1] {
		t.Errorf("list not newest-first: %+v", list)
	}
}

func TestDebugHandler(t *testing.T) {
	rec := NewRecorder(Options{SampleRate: 1})
	a := rec.Begin("")
	ctx, span := a.Start(context.Background(), "serve")
	_, child := obs.Start(ctx, "rank")
	child.SetAttr("mode", "lsh")
	child.End()
	span.End()
	rec.Finish(a, RequestInfo{Endpoint: "/v1/rank", Method: "POST", Code: 200, Duration: 3 * time.Millisecond})

	h := rec.Handler()

	// Listing.
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/debug/traces", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("list status = %d", w.Code)
	}
	var list listBody
	if err := json.Unmarshal(w.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if list.Held != 1 || list.Retained != 1 || len(list.Traces) != 1 {
		t.Fatalf("list = %+v", list)
	}
	if list.Traces[0].TraceID != a.TraceID || list.Traces[0].Endpoint != "/v1/rank" {
		t.Errorf("summary = %+v", list.Traces[0])
	}
	if strings.Contains(w.Body.String(), `"spans"`) {
		t.Error("listing must not inline span trees")
	}

	// Single trace with full span tree.
	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/debug/traces/"+a.TraceID, nil))
	if w.Code != http.StatusOK {
		t.Fatalf("get status = %d: %s", w.Code, w.Body.String())
	}
	var tr Trace
	if err := json.Unmarshal(w.Body.Bytes(), &tr); err != nil {
		t.Fatal(err)
	}
	if len(tr.Spans) != 1 || tr.Spans[0].Name != "serve" {
		t.Fatalf("span tree missing or rank not nested: %+v", tr.Spans)
	}
	kids := tr.Spans[0].Children
	if len(kids) != 1 || kids[0].Name != "rank" || kids[0].Attrs["mode"] != "lsh" {
		t.Errorf("rank span with mode attr not nested under serve: %+v", kids)
	}

	// Unknown id and wrong method.
	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/debug/traces/deadbeefdeadbeefdeadbeefdeadbeef", nil))
	if w.Code != http.StatusNotFound {
		t.Errorf("unknown id status = %d, want 404", w.Code)
	}
	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/debug/traces", nil))
	if w.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST status = %d, want 405", w.Code)
	}
}

func TestAccessLogLineShape(t *testing.T) {
	var buf strings.Builder
	rec := NewRecorder(Options{AccessLog: &buf})

	a := rec.Begin("")
	_, span := a.Start(context.Background(), "serve")
	span.End()
	rec.Finish(a, RequestInfo{Endpoint: "/v1/rank", Method: "POST", Code: 200, Duration: 2 * time.Millisecond, Bytes: 128})
	rec.Finish(rec.Begin(""), RequestInfo{Endpoint: "/v1/healthz", Method: "GET", Code: 200, Duration: time.Millisecond})

	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d access lines, want 2:\n%s", len(lines), buf.String())
	}
	// Deterministic field order: id leads, then trace, method, endpoint.
	wantPrefix := `{"id":"r00000001","trace":"` + a.TraceID + `","method":"POST","endpoint":"/v1/rank","code":200,"dur_ns":2000000,"bytes":128,"stages":[`
	if !strings.HasPrefix(lines[0], wantPrefix) {
		t.Errorf("line 1 = %s\nwant prefix %s", lines[0], wantPrefix)
	}
	var entry AccessEntry
	if err := json.Unmarshal([]byte(lines[0]), &entry); err != nil {
		t.Fatal(err)
	}
	if len(entry.Stages) != 1 || entry.Stages[0].Name != "serve" {
		t.Errorf("stages = %+v, want one serve stage", entry.Stages)
	}
	// A request with no spans omits the stages key entirely.
	if strings.Contains(lines[1], "stages") {
		t.Errorf("span-free request should omit stages: %s", lines[1])
	}
}

func TestMiddleware(t *testing.T) {
	clock := time.Date(2024, 6, 1, 12, 0, 0, 0, time.UTC)
	now := func() time.Time {
		clock = clock.Add(5 * time.Millisecond)
		return clock
	}
	rec := NewRecorder(Options{SampleRate: 1})
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, span := obs.Start(r.Context(), "rank")
		span.SetAttr("mode", "exact")
		span.End()
		w.WriteHeader(http.StatusTeapot)
		w.Write([]byte("hello"))
	})
	h := Middleware(inner, rec, now)

	w := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodGet, "/mirror/page", nil)
	req.Header.Set(Header, "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01")
	h.ServeHTTP(w, req)

	if got := w.Header().Get(Header); !strings.HasPrefix(got, "00-0af7651916cd43dd8448eb211c80319c-") {
		t.Errorf("response traceparent = %s, want inbound trace id", got)
	}
	if got := w.Header().Get(RequestIDHeader); got != "r00000001" {
		t.Errorf("request id header = %s", got)
	}

	tr := rec.ring.get("0af7651916cd43dd8448eb211c80319c")
	if tr == nil {
		t.Fatal("trace not retained")
	}
	if tr.Code != http.StatusTeapot || tr.Bytes != 5 {
		t.Errorf("trace code/bytes = %d/%d", tr.Code, tr.Bytes)
	}
	if tr.Sampled != "inbound" || tr.Endpoint != "/mirror/page" {
		t.Errorf("trace = %+v", tr)
	}
	if len(tr.Spans) != 1 || tr.Spans[0].Name != "serve" {
		t.Fatalf("root span wrong: %+v", tr.Spans)
	}
	if len(tr.Spans[0].Children) != 1 || tr.Spans[0].Children[0].Attrs["mode"] != "exact" {
		t.Errorf("handler span not nested under serve: %+v", tr.Spans[0].Children)
	}

	// Nil recorder: no trace headers appear, no state is touched.
	w = httptest.NewRecorder()
	Middleware(inner, nil, now).ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/mirror/page", nil))
	if got := w.Header().Get(Header); got != "" {
		t.Errorf("nil recorder stamped traceparent %q", got)
	}
	if got := w.Header().Get(RequestIDHeader); got != "" {
		t.Errorf("nil recorder stamped request id %q", got)
	}
}
