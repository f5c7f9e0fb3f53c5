// Package reqtrace gives every request through the serving path an
// identity that survives process boundaries and a per-stage record of
// what the server decided on its behalf.
//
// Three pieces compose:
//
//   - Propagation: each request gets a W3C-trace-context-style
//     traceparent (00-<trace>-<span>-<flags>). An inbound header is
//     honoured — the trace id and sampled flag carry through — and the
//     response is stamped with the same trace id under this hop's fresh
//     span id, which is exactly the contract a scatter-gather
//     coordinator will reuse when it fans a query out to shard workers.
//     A deterministic-format request id (r<8 hex digits>, a per-process
//     sequence) names the request in logs.
//   - Capture: the request flows through an obs.Tracer span tree
//     (obs.Start nests via context as everywhere else in the pipeline),
//     so each middleware and handler stage records its duration and
//     decision payload (prefilter mode, candidates examined, heap
//     evictions, index version) as span attributes.
//   - Sinks: a JSONL access log (one line per request, struct-ordered
//     fields), a bounded in-memory ring of sampled traces served at
//     /debug/traces and /debug/traces/{id}, and a rolling-window
//     streaming-quantile Window that backs the serve_request_seconds_p50
//     and _p99 gauges.
//
// Sampling is always-keep-slow plus probabilistic: a request slower than
// Options.Slow is always retained, everything else is retained with
// probability Options.SampleRate drawn from an injected splitmix64
// stream (fixed seed by default — no global RNG, no wall-clock seeding),
// or because the inbound traceparent already carried the sampled flag.
//
// The package never reads the wall clock: request latencies arrive from
// the caller's injected clock and span timings live inside internal/obs
// (the one sanctioned timing layer). The darklint wallclock pass checks
// this package (it is carved out of the internal/obs allowlist), and the
// serving layer's bit-identity test pins response bodies identical with
// tracing on or off.
package reqtrace

import (
	"context"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"darklight/internal/obs"
	"darklight/internal/splitmix"
)

// Header is the W3C trace-context propagation header, honoured inbound
// and stamped on every response.
const Header = "traceparent"

// RequestIDHeader carries the per-process request id on responses.
const RequestIDHeader = "X-Request-Id"

// DefaultSeed seeds the sampling RNG unless Options overrides it. A fixed
// seed keeps sampling decisions reproducible for a given request sequence
// without biasing which requests are kept.
const DefaultSeed = 0x7265717472616365 // "reqtrace"

// Options configure a Recorder. The zero value disables every sink; set
// at least Ring or AccessLog for the Recorder to be useful.
type Options struct {
	// Ring is how many sampled traces the in-memory buffer retains
	// (default 256 when <= 0).
	Ring int
	// SampleRate is the probabilistic retention rate in [0, 1].
	SampleRate float64
	// Slow always retains requests at least this slow; 0 disables the
	// slow path.
	Slow time.Duration
	// Seed seeds the sampling RNG (default DefaultSeed).
	Seed uint64
	// AccessLog receives one JSONL line per request when non-nil.
	AccessLog io.Writer
}

// DefaultRing is the trace buffer capacity when Options.Ring is unset.
const DefaultRing = 256

// Recorder owns the sinks of one serving process: the access log, the
// sampled-trace ring, and the sampling RNG. All methods are safe for
// concurrent use and safe on a nil receiver — a nil *Recorder is the
// tracing-disabled configuration, and every per-request call degrades to
// a no-op returning a nil *Active.
type Recorder struct {
	opts Options
	rng  atomic.Uint64
	seq  atomic.Uint64
	ring traceRing

	logMu sync.Mutex
}

// NewRecorder builds a Recorder. The access log writer, when set, must
// stay valid for the Recorder's lifetime (the caller owns closing it).
func NewRecorder(o Options) *Recorder {
	if o.Ring <= 0 {
		o.Ring = DefaultRing
	}
	if o.Seed == 0 {
		o.Seed = DefaultSeed
	}
	r := &Recorder{opts: o}
	r.rng.Store(o.Seed)
	r.ring.init(o.Ring)
	return r
}

// Active is one in-flight request's trace state: its ids, its retention
// decision so far, and the span tree being collected. Methods are
// nil-safe; a nil *Active is what disabled tracing hands around.
type Active struct {
	// TraceID is the 32-hex-digit trace identity, shared across hops.
	TraceID string
	// SpanID is this hop's fresh 16-hex-digit span id.
	SpanID string
	// ParentID is the inbound caller's span id ("" when this hop started
	// the trace).
	ParentID string
	// RequestID is the per-process request id (r<8 hex digits>).
	RequestID string

	inbound bool // inbound traceparent carried the sampled flag
	prob    bool // probabilistic sampling chose this request
	tracer  *obs.Tracer
}

// Begin starts trace state for one request. traceparent is the inbound
// header value ("" for none): a valid header donates its trace id,
// parent span id, and sampled flag; anything else starts a fresh trace.
// Returns nil when the Recorder is nil.
func (c *Recorder) Begin(traceparent string) *Active {
	if c == nil {
		return nil
	}
	a := &Active{
		RequestID: formatRequestID(c.seq.Add(1)),
		SpanID:    c.newSpanID(),
		tracer:    obs.NewTracer(),
	}
	if tid, sid, sampled, ok := parseTraceparent(traceparent); ok {
		a.TraceID, a.ParentID, a.inbound = tid, sid, sampled
	} else {
		a.TraceID = c.newTraceID()
	}
	a.prob = c.opts.SampleRate > 0 && c.randFloat() < c.opts.SampleRate
	return a
}

// Start installs the request's tracer on ctx and opens a span, nesting
// under the context's current span exactly like obs.Start. On a nil
// Active it returns ctx unchanged and a nil span — the zero-cost path.
func (a *Active) Start(ctx context.Context, name string) (context.Context, *obs.Span) {
	if a == nil {
		return ctx, nil
	}
	return obs.Start(obs.WithTracer(ctx, a.tracer), name)
}

// Traceparent renders the outbound header value for this hop: the shared
// trace id under this hop's span id, with the sampled flag set when the
// request is already known to be retained (inbound flag or the
// probabilistic draw; the slow path is decided only at Finish and cannot
// be reflected here). "" on a nil Active.
func (a *Active) Traceparent() string {
	if a == nil {
		return ""
	}
	flags := "00"
	if a.inbound || a.prob {
		flags = "01"
	}
	return "00-" + a.TraceID + "-" + a.SpanID + "-" + flags
}

// RequestInfo is what the serving layer reports about one finished
// request. Duration comes from the caller's injected clock.
type RequestInfo struct {
	Endpoint string
	Method   string
	Code     int
	Duration time.Duration
	Bytes    int
}

// Finish completes one request: the span tree is exported, the access
// line written, and the trace retained in the ring when sampling says so
// (inbound flag, probabilistic draw, or the always-keep-slow rule). The
// caller must have ended its spans first. No-op when either receiver or
// active is nil.
func (c *Recorder) Finish(a *Active, info RequestInfo) {
	if c == nil || a == nil {
		return
	}
	reason := ""
	switch {
	case a.inbound:
		reason = "inbound"
	case a.prob:
		reason = "sample"
	case c.opts.Slow > 0 && info.Duration >= c.opts.Slow:
		reason = "slow"
	}
	if c.opts.AccessLog != nil {
		c.writeAccessLine(a, info)
	}
	if reason == "" {
		return
	}
	c.ring.add(&Trace{
		TraceID:   a.TraceID,
		RequestID: a.RequestID,
		ParentID:  a.ParentID,
		Endpoint:  info.Endpoint,
		Method:    info.Method,
		Code:      info.Code,
		DurNS:     info.Duration.Nanoseconds(),
		Bytes:     info.Bytes,
		Sampled:   reason,
		Spans:     a.tracer.Snapshot(),
	})
}

// randFloat draws a uniform float64 in [0, 1) from the splitmix64 stream.
func (c *Recorder) randFloat() float64 {
	return float64(c.rand64()>>11) / (1 << 53)
}

// rand64 advances the shared splitmix64 state. The additive-constant
// stream means concurrent callers each get a distinct, well-mixed draw
// without locking.
func (c *Recorder) rand64() uint64 {
	// Add returns the advanced state; the draw is Mix of the one before.
	return splitmix.Mix(c.rng.Add(splitmix.Gamma) - splitmix.Gamma)
}

// newTraceID mints a 32-hex-digit non-zero trace id.
func (c *Recorder) newTraceID() string {
	for {
		hi, lo := c.rand64(), c.rand64()
		if hi|lo == 0 {
			continue
		}
		var b [32]byte
		putHex64(b[:16], hi)
		putHex64(b[16:], lo)
		return string(b[:])
	}
}

// newSpanID mints a 16-hex-digit non-zero span id.
func (c *Recorder) newSpanID() string {
	for {
		v := c.rand64()
		if v == 0 {
			continue
		}
		var b [16]byte
		putHex64(b[:], v)
		return string(b[:])
	}
}

// formatRequestID renders the per-process sequence as r<8 hex digits> —
// a fixed-width, lexically sortable id for log grepping.
func formatRequestID(seq uint64) string {
	var b [9]byte
	b[0] = 'r'
	for i := 8; i >= 1; i-- {
		b[i] = hexDigit(byte(seq & 0xf))
		seq >>= 4
	}
	return string(b[:])
}

func hexDigit(v byte) byte {
	if v < 10 {
		return '0' + v
	}
	return 'a' + v - 10
}

func putHex64(dst []byte, v uint64) {
	for i := 15; i >= 0; i-- {
		if i < len(dst) {
			dst[i] = hexDigit(byte(v & 0xf))
		}
		v >>= 4
	}
}

// parseTraceparent validates an inbound header: version 00, 32 lowercase
// hex trace id (not all zero), 16 lowercase hex parent span id (not all
// zero), 2 hex flags. Anything malformed is ignored (ok = false) — a
// hostile or sloppy client must not be able to corrupt trace state.
func parseTraceparent(s string) (traceID, spanID string, sampled, ok bool) {
	if len(s) != 55 || s[0] != '0' || s[1] != '0' || s[2] != '-' || s[35] != '-' || s[52] != '-' {
		return "", "", false, false
	}
	tid, pid, flags := s[3:35], s[36:52], s[53:55]
	if !isLowerHex(tid) || !isLowerHex(pid) || !isLowerHex(flags) {
		return "", "", false, false
	}
	if allZero(tid) || allZero(pid) {
		return "", "", false, false
	}
	return tid, pid, flags[1]&1 == 1, true
}

func isLowerHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func allZero(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] != '0' {
			return false
		}
	}
	return true
}
