// Command forumd serves a forum over HTTP — either a synthetic one
// generated on the fly or a dataset loaded from a JSONL file. It is the
// stand-in hidden service the scraper collects from.
//
// Usage:
//
//	forumd -listen :8989 -forum tmg -scale 0.02 [-latency 20ms] [-failures 0.05]
//	forumd -listen :8989 -load dataset.jsonl
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"time"

	"darklight"
	"darklight/internal/darkweb"
	"darklight/internal/forum"
	"darklight/internal/obs"
	"darklight/internal/obs/reqtrace"
)

func main() {
	var (
		listen     = flag.String("listen", "127.0.0.1:8989", "listen address")
		which      = flag.String("forum", "tmg", "synthetic forum to serve: reddit, tmg, or dm")
		scale      = flag.Float64("scale", 0.02, "synthetic population scale")
		seed       = flag.Uint64("seed", 1, "generator seed")
		load       = flag.String("load", "", "serve this JSONL dataset instead of generating")
		latency    = flag.Duration("latency", 0, "artificial per-request latency")
		failures   = flag.Float64("failures", 0, "probability of a 503 per request")
		rateLimits = flag.Float64("ratelimits", 0, "probability of a 429 with Retry-After per request")
		truncate   = flag.Float64("truncate", 0, "probability of a torn (truncated) response body")
		stall      = flag.Float64("stall", 0, "probability of a response stalling mid-body")
		flaky      = flag.Int("failfirst", 0, "every page 503s its first N requests, then succeeds")
		accessLog  = flag.String("access-log", "", "append one JSON line per request to this file (empty: no access log)")
	)
	flag.Parse()

	dataset, err := pickDataset(*load, *which, *scale, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "forumd:", err)
		os.Exit(1)
	}

	srv := darkweb.NewServer(dataset.Name, dataset, darkweb.Options{
		Latency:        *latency,
		FailureRate:    *failures,
		RetryAfterRate: *rateLimits,
		TruncateRate:   *truncate,
		StallRate:      *stall,
		FailFirstN:     *flaky,
		Seed:           int64(*seed),
	})
	log.Printf("forumd: serving %s (%d aliases, %d messages, boards %v) on http://%s",
		dataset.Name, dataset.Len(), dataset.TotalMessages(), srv.Boards(), *listen)

	// The forum pages mount at /; the observability surfaces (/metrics,
	// /debug/pprof/) mount beside them — ServeMux routes the
	// longer patterns first. With -access-log, the page tree is wrapped in
	// the generic request-tracing middleware: every response carries a
	// traceparent + request id and the log gets one JSON line per request.
	var pages http.Handler = srv.Handler()
	if *accessLog != "" {
		f, err := os.OpenFile(*accessLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			log.Fatalf("forumd: -access-log: %v", err)
		}
		defer f.Close()
		rec := reqtrace.NewRecorder(reqtrace.Options{AccessLog: f})
		pages = reqtrace.Middleware(pages, rec, time.Now)
	}
	mux := http.NewServeMux()
	mux.Handle("/", pages)
	obs.AttachDebug(mux, obs.Default())
	obs.RegisterRuntime(obs.Default())

	server := &http.Server{
		Addr:              *listen,
		Handler:           mux,
		ReadHeaderTimeout: 10 * time.Second,
	}
	if err := server.ListenAndServe(); err != nil {
		log.Fatalf("forumd: %v", err)
	}
}

func pickDataset(load, which string, scale float64, seed uint64) (*forum.Dataset, error) {
	if load != "" {
		return darklight.LoadJSONL(load, "loaded", forum.PlatformSynthetic)
	}
	world, err := darklight.GenerateWorld(darklight.WorldConfig{Seed: seed, Scale: scale})
	if err != nil {
		return nil, err
	}
	return world.Forum(which)
}
