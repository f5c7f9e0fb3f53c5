package serve

import (
	"errors"
	"io"
	"net"
	"net/http"
	"strconv"

	"darklight/internal/obs"
	"darklight/internal/obs/reqtrace"
)

// endpointMode selects the middleware chain an endpoint runs under.
type endpointMode struct {
	method string
	// auth and limit apply the API-key check and the token bucket.
	auth, limit bool
	// gateDrain refuses the request with 503 once Drain has started.
	gateDrain bool
	// readBody reads (and bounds) the request body before the handler.
	readBody bool
}

var (
	// postJSON is the query-endpoint chain: POST only, authenticated,
	// rate-limited, drain-gated, body-bounded.
	postJSON = endpointMode{method: http.MethodPost, auth: true, limit: true, gateDrain: true, readBody: true}
	// getOpen is the healthz chain: GET, unauthenticated, never gated —
	// orchestrators must be able to watch a draining instance.
	getOpen = endpointMode{method: http.MethodGet}
)

// handlerFunc is one endpoint's logic: pure request → (response, error)
// against an immutable state snapshot. The wrapper owns everything
// HTTP-shaped around it.
type handlerFunc func(r *http.Request, st *state, body []byte) (any, *Error)

// endpoint wraps h in the middleware chain: request tracing, in-flight
// accounting, the drain gate, method check, auth, rate limiting, body
// bounding, response encoding, and per-endpoint request/latency metrics.
// The state snapshot is loaded exactly once per request, so handlers never
// observe a reload mid-request.
//
// Tracing (Config.Trace non-nil) stamps the response with this hop's
// traceparent and request id, installs a root "serve" span on the request
// context (the stage spans below nest under it), and reports the finished
// request to the recorder's sinks. Response BODIES are bit-identical with
// tracing on or off — only the two response headers differ.
func (s *Service) endpoint(name string, mode endpointMode, h handlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := s.clock.Now()
		act := s.cfg.Trace.Begin(r.Header.Get(reqtrace.Header))
		var root *obs.Span
		var counted *byteCountWriter
		out := w
		if act != nil {
			w.Header().Set(reqtrace.Header, act.Traceparent())
			w.Header().Set(reqtrace.RequestIDHeader, act.RequestID)
			counted = &byteCountWriter{ResponseWriter: w}
			out = counted
			var ctx = r.Context()
			ctx, root = act.Start(ctx, "serve")
			root.SetAttr("endpoint", name)
			r = r.WithContext(ctx)
		}
		s.inflight.Add(1)
		s.met.inflight.Add(1)
		defer func() {
			s.met.inflight.Add(-1)
			s.inflight.Done()
		}()
		// Admission is decided here, at entry: a request that sees the
		// drain flag clear is in-flight work that Drain waits for and that
		// must complete even if the drain starts mid-handling. (Add-then-
		// check keeps the flag store and wg.Wait race-free.)
		admitted := !mode.gateDrain || !s.draining.Load()
		if s.hookInflight != nil {
			s.hookInflight(name)
		}

		var resp any
		var apiErr *Error
		if !admitted {
			apiErr = &Error{Code: CodeDraining, Message: "the server is draining; no new requests are accepted", Status: http.StatusServiceUnavailable}
		} else {
			resp, apiErr = s.serveOne(r, s.state.Load(), mode, h)
		}
		status := http.StatusOK
		if apiErr != nil {
			status = apiErr.Status
			writeError(out, apiErr)
		} else {
			writeJSON(out, status, resp)
		}
		elapsed := s.clock.Now().Sub(start)
		s.met.requests.With(name, strconv.Itoa(status)).Inc()
		s.met.latency.With(name).Observe(elapsed.Seconds())
		if act != nil {
			root.SetAttr("code", strconv.Itoa(status))
			if apiErr != nil {
				root.SetAttr("error", apiErr.Code)
			}
			root.End()
			s.cfg.Trace.Finish(act, reqtrace.RequestInfo{
				Endpoint: name,
				Method:   r.Method,
				Code:     status,
				Duration: elapsed,
				Bytes:    counted.n,
			})
		}
	})
}

// byteCountWriter counts response bytes for the access log. Writes pass
// through untouched, so wrapping cannot change the bytes on the wire.
type byteCountWriter struct {
	http.ResponseWriter
	n int
}

func (w *byteCountWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += n
	return n, err
}

// serveOne runs the chain for one request and returns either a response
// value or a structured error. Each stage runs under its own span (nested
// below the endpoint's root "serve" span) so a retained trace shows where
// a rejected request died and what each admission decision was; with
// tracing off every obs.Start returns a nil span and the stages cost
// nothing.
func (s *Service) serveOne(r *http.Request, st *state, mode endpointMode, h handlerFunc) (any, *Error) {
	if r.Method != mode.method {
		return nil, &Error{Code: CodeMethodNotAllowed, Message: "use " + mode.method, Status: http.StatusMethodNotAllowed}
	}
	ctx := r.Context()
	presented := r.Header.Get("X-API-Key")
	// key stays empty unless auth actually validated the header: when auth
	// is disabled the X-API-Key value is attacker-controlled, and keying
	// the limiter on it would let a caller mint a fresh bucket per request
	// — a full rate-limit bypass that also inflates the bucket map.
	key := ""
	if mode.auth && s.keys != nil {
		_, sp := obs.Start(ctx, "auth")
		if presented == "" {
			sp.SetAttr("result", "missing")
			sp.End()
			return nil, &Error{Code: CodeUnauthorized, Message: "missing X-API-Key header", Status: http.StatusUnauthorized}
		}
		if _, ok := s.keys[presented]; !ok {
			sp.SetAttr("result", "invalid")
			sp.End()
			return nil, &Error{Code: CodeInvalidAPIKey, Message: "the presented API key is not recognised", Status: http.StatusForbidden}
		}
		key = presented
		sp.SetAttr("result", "ok")
		sp.End()
	}
	if mode.limit {
		_, sp := obs.Start(ctx, "ratelimit")
		ok, wait := s.limiter.allow(clientKey(key, r))
		if !ok {
			sp.SetAttr("result", "limited")
			sp.End()
			return nil, &Error{
				Code:       CodeRateLimited,
				Message:    "per-client rate limit exceeded; retry after the Retry-After delay",
				Status:     http.StatusTooManyRequests,
				retryAfter: wait,
			}
		}
		sp.SetAttr("result", "ok")
		sp.End()
	}
	// Deadline check before any expensive work: a request that spent its
	// budget queueing is answered with a timeout envelope instead of
	// burning matcher time on an answer nobody is waiting for.
	if err := ctx.Err(); err != nil {
		return nil, &Error{Code: CodeTimeout, Message: "request deadline exceeded before handling started", Status: http.StatusServiceUnavailable}
	}
	var body []byte
	if mode.readBody {
		_, sp := obs.Start(ctx, "decode")
		var apiErr *Error
		body, apiErr = s.readBody(r)
		sp.AddBytes(int64(len(body)))
		sp.End()
		if apiErr != nil {
			return nil, apiErr
		}
	}
	return h(r, st, body)
}

// clientKey identifies the rate-limit bucket: the API key when auth has
// validated it, else the remote host (auth-disabled deployments).
func clientKey(apiKey string, r *http.Request) string {
	if apiKey != "" {
		return apiKey
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// readBody reads the request body under the configured byte bound. An
// over-limit body is rejected with the payload_too_large envelope.
func (s *Service) readBody(r *http.Request) ([]byte, *Error) {
	limited := http.MaxBytesReader(nil, r.Body, s.cfg.MaxBody)
	body, err := io.ReadAll(limited)
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return nil, errPayloadTooLarge(s.cfg.MaxBody)
		}
		return nil, errInvalidJSON("reading request body: " + err.Error())
	}
	return body, nil
}
