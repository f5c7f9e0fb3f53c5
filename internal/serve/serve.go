package serve

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"darklight/internal/attribution"
	"darklight/internal/features"
	"darklight/internal/obs"
	"darklight/internal/obs/reqtrace"
)

// Corpus is what a Loader hands the service: the known subjects to index
// and (optionally) a query corpus that by-alias requests resolve against.
// When Query is nil the known set doubles as the query corpus.
type Corpus struct {
	Known []attribution.Subject
	Query []attribution.Subject
	// Matcher, when non-nil, is a pre-built index over exactly Known — for
	// example one cold-started from an internal/store snapshot — and is
	// installed as-is instead of re-indexing Known. The Options the matcher
	// was built with win over Config.Options.
	Matcher *attribution.Matcher
	// LastJournalSeq, when non-nil, is the last applied journal sequence of
	// the store the corpus was loaded from; healthz surfaces it so an
	// operator can line the serving snapshot up against the writer's
	// journal position. Loaders without a durable store leave it nil.
	LastJournalSeq *uint64
}

// Loader produces the corpus. It runs once at startup and again on every
// Reload (SIGHUP in cmd/attributed), so it should re-read its sources.
type Loader func(ctx context.Context) (*Corpus, error)

// Config assembles a Service.
type Config struct {
	// Loader supplies the corpus; required.
	Loader Loader
	// Options configure the matcher (zero value: attribution defaults).
	Options attribution.Options
	// Subjects configures inline-subject construction. Pass the same
	// options the corpus was built with (darklight.Pipeline.SubjectOptions)
	// so inline queries and batch queries share one code path.
	Subjects attribution.SubjectOptions
	// APIKeys enables auth when non-empty: requests must carry one of
	// these in the X-API-Key header.
	APIKeys []string
	// RatePerSec enables the per-client token-bucket limiter when > 0.
	RatePerSec float64
	// Burst is the bucket size (minimum 1).
	Burst int
	// MaxBody caps request bodies in bytes (default DefaultMaxBody).
	MaxBody int64
	// Clock defaults to SystemClock. Tests inject a fake.
	Clock Clock
	// Registry receives the per-endpoint metrics (default obs.Default()).
	Registry *obs.Registry
	// Trace, when non-nil, enables request tracing: every request gets a
	// traceparent and request id stamped on the response, flows through a
	// per-stage span tree, and is reported to the recorder's sinks (access
	// log, sampled-trace ring). nil disables tracing entirely — response
	// bodies are bit-identical either way (TestTraceBitIdentity pins it).
	Trace *reqtrace.Recorder
}

// state is one index snapshot, immutable but for its prepared-query slots,
// which only ever go from empty to filled. Handlers load it once per
// request through an atomic pointer, so a concurrent Reload is invisible
// to in-flight queries: every response is computed entirely against a
// single version and stamps that version into its body.
type state struct {
	version int
	matcher *attribution.Matcher
	known   []attribution.Subject
	// knownSet validates rescore candidate names.
	knownSet map[string]struct{}
	// query resolves a by-alias subject to its position in queries;
	// duplicate names resolve to the last occurrence (the matcher's own
	// byName rule).
	query   map[string]int
	queries []attribution.Subject
	// prepared holds one slot per queries entry, filled on the entry's
	// first by-alias request with the subject prepared against this
	// snapshot's matcher (Service.prepare). The slots are the snapshot's
	// own: a prepared query's numbers and vector are in its matcher's
	// dictionary and vocabulary, which a fold moves, so a reload starts
	// empty ones, and nothing fills them at load. What a reload can carry
	// is the extraction they were prepared from (extracted).
	prepared []atomic.Pointer[attribution.Query]
	// extracted holds one slot per queries entry, filled with the entry's
	// extraction by whichever first touch extracts it. An extraction is a
	// function of the text and the reduction config alone, so a reload
	// whose query texts and config extract alike shares these slots with
	// the generation before it (Service.build), and a first touch there
	// prepares from the carried extraction instead of extracting again.
	// They refer to no matcher, so sharing them keeps no old one alive.
	extracted []atomic.Pointer[features.PackedDoc]
	// lastSeq is the loader-reported journal sequence this snapshot was
	// built from (nil when the corpus has no durable store behind it).
	lastSeq *uint64
}

// Service is the attribution daemon's handler layer: it owns the index
// snapshot, the middleware chain (auth, rate limit, drain gate, metrics),
// and the /v1 endpoint handlers. Safe for concurrent use.
type Service struct {
	cfg     Config
	clock   Clock
	keys    map[string]struct{}
	limiter *rateLimiter
	met     *metrics

	state atomic.Pointer[state]

	// reloadCount is how many snapshots install has published (the initial
	// load counts); healthz reports it. Kept on the Service rather than
	// read back from the metrics counter so a registry shared between
	// services cannot cross-contaminate the number.
	reloadCount atomic.Int64

	reloadMu sync.Mutex // serialises Reload; swaps stay atomic for readers

	draining atomic.Bool
	inflight sync.WaitGroup

	// hookInflight, when set by a test, runs after a request is counted
	// in-flight and before it is handled — the drain tests use it to hold
	// a request open deterministically.
	hookInflight func(endpoint string)
	// hookPrepared, when set by a test, runs after a first touch has
	// prepared its query and before it publishes it — the concurrency test
	// uses it to line every racing first touch up at the compare-and-swap.
	hookPrepared func()
}

// metrics is the per-endpoint observability surface, registered on the
// configured registry (idempotently, so many Services can share one).
type metrics struct {
	requests   *obs.CounterVec   // serve_requests_total{endpoint,code}
	latency    *obs.HistogramVec // serve_request_seconds{endpoint}
	inflight   *obs.Gauge        // serve_inflight_requests
	reloads    *obs.Counter      // serve_index_reloads_total
	reloadErrs *obs.Counter      // serve_index_reload_failures_total
	version    *obs.Gauge        // serve_index_version
	known      *obs.Gauge        // serve_known_subjects
}

// latencyBuckets spans sub-millisecond handler hits through slow seconds.
var latencyBuckets = []float64{.0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5}

func newMetrics(r *obs.Registry) *metrics {
	return &metrics{
		requests:   r.CounterVec("serve_requests_total", "requests served by endpoint and status code", "endpoint", "code"),
		latency:    r.HistogramVec("serve_request_seconds", "request latency by endpoint", latencyBuckets, "endpoint"),
		inflight:   r.Gauge("serve_inflight_requests", "requests currently being handled"),
		reloads:    r.Counter("serve_index_reloads_total", "successful index reloads (the initial load counts)"),
		reloadErrs: r.Counter("serve_index_reload_failures_total", "failed index reloads (the previous index stays live)"),
		version:    r.Gauge("serve_index_version", "version of the live index snapshot"),
		known:      r.Gauge("serve_known_subjects", "known subjects in the live index"),
	}
}

// ErrDrainTimeout is returned by Drain when in-flight requests do not
// complete within the deadline.
var ErrDrainTimeout = fmt.Errorf("serve: drain deadline exceeded with requests still in flight")

// New builds a Service and performs the initial index load (version 1).
func New(ctx context.Context, cfg Config) (*Service, error) {
	if cfg.Loader == nil {
		return nil, fmt.Errorf("serve: Config.Loader is required")
	}
	if cfg.Clock == nil {
		cfg.Clock = SystemClock
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.Default()
	}
	if cfg.MaxBody <= 0 {
		cfg.MaxBody = DefaultMaxBody
	}
	if cfg.Options.K == 0 && cfg.Options.Threshold == 0 {
		cfg.Options = attribution.DefaultOptions()
	}
	s := &Service{
		cfg:     cfg,
		clock:   cfg.Clock,
		limiter: newRateLimiter(cfg.RatePerSec, cfg.Burst, cfg.Clock),
		met:     newMetrics(cfg.Registry),
	}
	if len(cfg.APIKeys) > 0 {
		s.keys = make(map[string]struct{}, len(cfg.APIKeys))
		for _, k := range cfg.APIKeys {
			s.keys[k] = struct{}{}
		}
	}
	st, err := s.build(ctx, nil)
	if err != nil {
		return nil, err
	}
	s.install(st)
	return s, nil
}

// build loads the corpus and constructs one immutable snapshot, the one
// after prev (nil: the first).
func (s *Service) build(ctx context.Context, prev *state) (*state, error) {
	c, err := s.cfg.Loader(ctx)
	if err != nil {
		return nil, fmt.Errorf("serve: load corpus: %w", err)
	}
	m := c.Matcher
	if m == nil {
		m, err = attribution.NewMatcherContext(ctx, c.Known, s.cfg.Options)
		if err != nil {
			return nil, fmt.Errorf("serve: index corpus: %w", err)
		}
	}
	version := 1
	if prev != nil {
		version = prev.version + 1
	}
	st := &state{
		version:  version,
		matcher:  m,
		known:    c.Known,
		knownSet: make(map[string]struct{}, len(c.Known)),
	}
	if c.LastJournalSeq != nil {
		seq := *c.LastJournalSeq // copy: the loader may reuse its corpus struct
		st.lastSeq = &seq
	}
	for i := range c.Known {
		st.knownSet[c.Known[i].Name] = struct{}{}
	}
	qs := c.Query
	if qs == nil {
		qs = c.Known
	}
	st.query = make(map[string]int, len(qs))
	for i := range qs {
		st.query[qs[i].Name] = i
	}
	st.queries = qs
	st.prepared = make([]atomic.Pointer[attribution.Query], len(qs))
	if prev != nil && sameExtractions(prev, st) {
		st.extracted = prev.extracted
	} else {
		st.extracted = make([]atomic.Pointer[features.PackedDoc], len(qs))
	}
	return st, nil
}

// sameExtractions reports whether every query subject of cur extracts as the
// one in its place in prev: the texts are the same and both matchers'
// reduction configs extract alike.
func sameExtractions(prev, cur *state) bool {
	if len(prev.queries) != len(cur.queries) ||
		!prev.matcher.Options().Reduction.SameExtraction(cur.matcher.Options().Reduction) {
		return false
	}
	for i := range cur.queries {
		if prev.queries[i].Text != cur.queries[i].Text {
			return false
		}
	}
	return true
}

// How a by-alias request came by its prepared query, as the "resolve"
// span's "prepared" attribute reports it.
const (
	preparedBuilt   = "built"   // this request extracted and prepared it
	preparedCarried = "carried" // this request prepared it from a kept extraction
	preparedCached  = "cached"  // an earlier request of the generation prepared it
)

// prepare returns query subject i prepared against st's matcher, and how
// this call came by it. The generation's first touch prepares it — from the
// subject's extraction slot when that is filled, else extracting and
// filling it — and publishes the query by compare-and-swap; first touches
// that race all answer with the query that won, so a filled slot never
// changes.
func (s *Service) prepare(st *state, i int) (*attribution.Query, string) {
	slot := &st.prepared[i]
	if q := slot.Load(); q != nil {
		return q, preparedCached
	}
	x := st.extracted[i].Load()
	how := preparedCarried
	q, packed := st.matcher.PrepareCarried(&st.queries[i], x)
	if x == nil {
		how = preparedBuilt
		st.extracted[i].CompareAndSwap(nil, packed)
	}
	if s.hookPrepared != nil {
		s.hookPrepared()
	}
	if !slot.CompareAndSwap(nil, q) {
		q = slot.Load()
	}
	return q, how
}

// install publishes a snapshot and updates the index gauges.
func (s *Service) install(st *state) {
	s.state.Store(st)
	s.met.version.Set(float64(st.version))
	s.met.known.Set(float64(len(st.known)))
	s.met.reloads.Inc()
	s.reloadCount.Add(1)
}

// Reload re-runs the loader and atomically swaps in the new index. In-flight
// queries keep the snapshot they started with; a failed reload leaves the
// live index untouched and returns the error.
func (s *Service) Reload(ctx context.Context) error {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	st, err := s.build(ctx, s.state.Load())
	if err != nil {
		s.met.reloadErrs.Inc()
		return err
	}
	s.install(st)
	return nil
}

// Version reports the live index version.
func (s *Service) Version() int { return s.state.Load().version }

// Draining reports whether Drain has been initiated.
func (s *Service) Draining() bool { return s.draining.Load() }

// Drain initiates a graceful shutdown of the handler layer: new requests
// are refused with a 503 "draining" envelope (healthz stays up, reporting
// the drain), and Drain blocks until every in-flight request has completed
// or the timeout elapses on the service clock, returning ErrDrainTimeout
// in the latter case. The caller is responsible for closing its listener —
// typically before calling Drain, so new *connections* are refused too.
func (s *Service) Drain(timeout time.Duration) error {
	s.draining.Store(true)
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-s.clock.After(timeout):
		return ErrDrainTimeout
	}
}

// Handler returns the /v1 API mux. Mount it at "/" (it owns its full
// paths); observability surfaces (/metrics, /debug/pprof) mount beside it.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/v1/rank", s.endpoint("rank", postJSON, s.handleRank))
	mux.Handle("/v1/rescore", s.endpoint("rescore", postJSON, s.handleRescore))
	mux.Handle("/v1/match", s.endpoint("match", postJSON, s.handleMatch))
	mux.Handle("/v1/healthz", s.endpoint("healthz", getOpen, s.handleHealthz))
	return mux
}
