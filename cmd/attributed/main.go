// Command attributed serves alias attribution as a long-lived daemon: it
// loads (or generates) a corpus once, indexes it, and answers concurrent
// /v1/rank, /v1/rescore, and /v1/match queries over HTTP JSON — the
// serving-system counterpart of the one-shot cmd/darklight batch CLI.
//
// Usage:
//
//	attributed -listen :8787 -known main.jsonl [-query ae.jsonl] [-api-keys k1,k2] [-rate 50 -burst 100]
//	attributed -listen :8787 -forum reddit -scale 0.02 -seed 1
//
// With -known, the known dataset is loaded from JSONL (polished and
// refined unless -polish=false / -refine=false) and indexed; -query
// optionally loads a second dataset that by-alias requests resolve
// against. Without -known, a synthetic world is generated and split into
// (main, alter-ego) halves: main is indexed, the alter egos become the
// query corpus — a self-contained demo where every query has a true match.
//
// With -index-dir, the index is persisted through internal/store: on
// startup the daemon cold-starts from dir/index.snap when present (no
// rebuild), replays any journal.jsonl thread deltas on top, and — with
// -save-index — writes the resulting generation back and compacts the
// journal. A missing snapshot — or, with -known, one written in another
// snapshot format version — falls back to building from the corpus source
// and (with -save-index) saving it for the next start. Without -index-dir
// the same loader runs with nothing to load, replay or save.
//
// Signals: SIGHUP reloads — with -index-dir it replays new journal entries
// onto the live index, without it the index is rebuilt from the corpus
// source — and swaps the index atomically (in-flight queries finish on the
// old index); SIGTERM/SIGINT stop accepting connections, drain in-flight
// requests up to -drain, and exit. /metrics, /debug/vars, /debug/pprof,
// and /debug/traces are mounted beside the API, outside its -timeout.
//
// Request tracing is on by default (-trace=false disables it): every
// response carries a traceparent + X-Request-Id, inbound traceparent
// headers are honoured, sampled span trees are browsable at
// /debug/traces, and -access-log appends one JSON line per request.
// Tracing never changes a response body (the serve tests pin the bytes
// identical either way).
//
// -selfcheck N runs N requests (rank, match, rescore, healthz in turn)
// through the full in-process chain instead of serving a socket — CI uses
// it to produce a real access log and a trace-ring dump as build artifacts.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"darklight"
	"darklight/internal/attribution"
	"darklight/internal/forum"
	"darklight/internal/obs"
	"darklight/internal/obs/reqtrace"
	"darklight/internal/serve"
	"darklight/internal/store"
)

func main() {
	var (
		listen    = flag.String("listen", "127.0.0.1:8787", "listen address")
		known     = flag.String("known", "", "known dataset JSONL to index (empty: generate a synthetic world)")
		query     = flag.String("query", "", "optional query dataset JSONL for by-alias requests (default: the known set)")
		forumW    = flag.String("forum", "reddit", "synthetic world forum: reddit, tmg, or dm")
		scale     = flag.Float64("scale", 0.02, "synthetic population scale")
		seed      = flag.Uint64("seed", 1, "synthetic generator seed")
		polish    = flag.Bool("polish", true, "run the §III-C cleaning pipeline on loaded datasets")
		refine    = flag.Bool("refine", true, "drop aliases below the §IV-D thresholds before indexing")
		thresh    = flag.Float64("threshold", darklight.DefaultThreshold, "acceptance threshold")
		k         = flag.Int("k", darklight.DefaultK, "stage-1 candidate-set size")
		budget    = flag.Int("budget", darklight.DefaultWordBudget, "per-alias word budget")
		workers   = flag.Int("workers", 0, "index-build parallelism (0: GOMAXPROCS)")
		apiKeys   = flag.String("api-keys", "", "comma-separated API keys; empty disables auth")
		rate      = flag.Float64("rate", 0, "per-client requests/second (0: unlimited)")
		burst     = flag.Int("burst", 20, "rate-limit burst size")
		maxBody   = flag.Int64("max-body", serve.DefaultMaxBody, "request body byte limit")
		timeout   = flag.Duration("timeout", 30*time.Second, "per-request handling deadline")
		drain     = flag.Duration("drain", 15*time.Second, "SIGTERM drain deadline for in-flight requests")
		indexDir  = flag.String("index-dir", "", "index store directory (index.snap + journal.jsonl): cold-start from the snapshot when present; SIGHUP replays journal deltas instead of rebuilding")
		saveIdx   = flag.Bool("save-index", false, "write the index back to -index-dir after build/replay and compact the journal")
		traceOn   = flag.Bool("trace", true, "request tracing: traceparent propagation, per-stage span capture, /debug/traces")
		traceRing = flag.Int("trace-ring", reqtrace.DefaultRing, "sampled traces retained in memory for /debug/traces")
		traceRate = flag.Float64("trace-sample", 0.01, "probability a request's span tree is retained (slow and inbound-sampled requests are always kept)")
		traceSlow = flag.Duration("trace-slow", 250*time.Millisecond, "always retain traces of requests at least this slow (0 disables the slow rule)")
		accessLog = flag.String("access-log", "", "append one JSON line per request to this file (empty: no access log)")
		selfcheck = flag.Int("selfcheck", 0, "run N in-process requests through the full chain, dump the trace listing to stdout, and exit instead of serving")
	)
	flag.Parse()
	if *saveIdx && *indexDir == "" {
		log.Fatal("attributed: -save-index requires -index-dir")
	}

	var rec *reqtrace.Recorder
	if *traceOn || *accessLog != "" {
		o := reqtrace.Options{Ring: *traceRing, SampleRate: *traceRate, Slow: *traceSlow}
		if *accessLog != "" {
			f, err := os.OpenFile(*accessLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				log.Fatalf("attributed: -access-log: %v", err)
			}
			defer f.Close()
			o.AccessLog = f
		}
		rec = reqtrace.NewRecorder(o)
	}

	pipe := darklight.NewPipeline(
		darklight.WithThreshold(*thresh),
		darklight.WithK(*k),
		darklight.WithWordBudget(*budget),
		darklight.WithWorkers(*workers),
	)
	opts := pipe.MatcherOptions()

	var st *store.Store
	if *indexDir != "" {
		var err error
		if st, err = store.Open(*indexDir); err != nil {
			log.Fatalf("attributed: %v", err)
		}
	}
	src := &source{pipe: pipe, known: *known, query: *query, forum: *forumW, scale: *scale, seed: *seed, polish: *polish, refine: *refine}

	ctx := context.Background()
	start := time.Now()
	svc, err := serve.New(ctx, serve.Config{
		Loader:     newLoader(st, opts, pipe.SubjectOptions(), *saveIdx, *known != "", src.knownDataset, src.querySubjects),
		Options:    opts,
		Subjects:   pipe.SubjectOptions(),
		APIKeys:    splitKeys(*apiKeys),
		RatePerSec: *rate,
		Burst:      *burst,
		MaxBody:    *maxBody,
		Trace:      rec,
	})
	if err != nil {
		log.Fatalf("attributed: %v", err)
	}
	log.Printf("attributed: index v%d built in %s", svc.Version(), time.Since(start).Round(time.Millisecond))

	obs.RegisterRuntime(obs.Default())
	mux := handler(svc.Handler(), rec, *timeout)

	if *selfcheck > 0 {
		keys := splitKeys(*apiKeys)
		key := ""
		if len(keys) > 0 {
			key = keys[0]
		}
		if err := selfCheck(mux, rec, *selfcheck, key); err != nil {
			log.Fatalf("attributed: %v", err)
		}
		log.Printf("attributed: selfcheck passed (%d requests)", *selfcheck)
		return
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("attributed: %v", err)
	}
	server := &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       *timeout,
		WriteTimeout:      *timeout + 5*time.Second,
	}
	go func() {
		if err := server.Serve(ln); err != nil && err != http.ErrServerClosed && !isClosedListener(err) {
			log.Fatalf("attributed: serve: %v", err)
		}
	}()
	log.Printf("attributed: serving /v1/{rank,rescore,match,healthz} on http://%s", ln.Addr())

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGHUP, syscall.SIGTERM, os.Interrupt)
	for sig := range sigs {
		if sig == syscall.SIGHUP {
			reloadStart := time.Now()
			if err := svc.Reload(ctx); err != nil {
				log.Printf("attributed: reload failed, keeping index v%d: %v", svc.Version(), err)
				continue
			}
			log.Printf("attributed: reloaded index v%d in %s", svc.Version(), time.Since(reloadStart).Round(time.Millisecond))
			continue
		}
		// SIGTERM/SIGINT: refuse new connections first, then drain.
		log.Printf("attributed: %s received, draining (deadline %s)", sig, *drain)
		//lint:ignore errdrop double-close on a dead listener is the only failure mode and the process is exiting
		ln.Close()
		if err := svc.Drain(*drain); err != nil {
			log.Printf("attributed: %v", err)
			//lint:ignore errdrop the process exits on the next line either way
			server.Close()
			os.Exit(1)
		}
		//lint:ignore errdrop in-flight requests are drained; nothing is left to fail
		server.Close()
		log.Printf("attributed: drained cleanly, exiting")
		return
	}
}

// handler assembles what the daemon serves. Only the /v1/ API runs under the
// per-request deadline: /debug/pprof/profile takes 30 s by default — the
// default -timeout — and under the deadline came back as its 503. The
// server's WriteTimeout bounds everything beside the API.
func handler(api http.Handler, rec *reqtrace.Recorder, timeout time.Duration) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/v1/", http.TimeoutHandler(api, timeout, `{"error":{"code":"timeout","message":"request deadline exceeded","status":503}}`))
	obs.AttachDebug(mux, obs.Default())
	if rec != nil {
		mux.Handle("/debug/traces", rec.Handler())
		mux.Handle("/debug/traces/", rec.Handler())
	}
	return mux
}

// isClosedListener matches the error Serve returns when the SIGTERM path
// closes the listener out from under it.
func isClosedListener(err error) bool {
	return errors.Is(err, net.ErrClosed)
}

// selfCheck drives n requests through the served handler in process — the
// same middleware chain, tracing, and sinks a socket client would hit —
// then dumps the sampled-trace listing to stdout. CI runs this mode to
// publish a real access log and trace dump as build artifacts; it fails
// on the first non-200 so a broken chain cannot produce green artifacts.
func selfCheck(h http.Handler, rec *reqtrace.Recorder, n int, apiKey string) error {
	// An inline subject keeps the probe corpus-independent: the cycle takes it
	// through both stages — rank, match, a rescore of the candidates the rank
	// returned — without assuming any alias names.
	subject := serve.SubjectSpec{Name: "selfcheck", Messages: []serve.MessageSpec{{
		Body: "shipment arrived with stealth packaging and escrow finalize quality tracking",
		Time: "2017-03-04T10:00:00Z",
	}}}
	rescore := serve.RescoreRequest{Subject: subject}
	for i := 0; i < n; i++ {
		method, path, body := http.MethodPost, "/v1/rank", any(serve.RankRequest{Subject: subject, K: 3})
		switch i % 4 {
		case 1:
			path, body = "/v1/match", serve.MatchRequest{Subject: subject}
		case 2:
			path, body = "/v1/rescore", rescore
		case 3:
			method, path, body = http.MethodGet, "/v1/healthz", nil
		}
		var raw []byte
		if body != nil {
			var err error
			if raw, err = json.Marshal(body); err != nil {
				return fmt.Errorf("selfcheck request %d: %w", i, err)
			}
		}
		req := httptest.NewRequest(method, path, bytes.NewReader(raw))
		if apiKey != "" && method == http.MethodPost {
			req.Header.Set("X-API-Key", apiKey)
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			return fmt.Errorf("selfcheck request %d: %s %s: %d %s", i, method, path, w.Code, w.Body.String())
		}
		if i%4 == 0 {
			var ranked serve.RankResponse
			if err := json.Unmarshal(w.Body.Bytes(), &ranked); err != nil {
				return fmt.Errorf("selfcheck request %d: %s %s: %w", i, method, path, err)
			}
			rescore.Candidates = rescore.Candidates[:0]
			for _, c := range ranked.Candidates {
				rescore.Candidates = append(rescore.Candidates, c.Alias)
			}
		}
	}
	if rec != nil {
		w := httptest.NewRecorder()
		rec.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/debug/traces", nil))
		//lint:ignore errdrop a failed stdout write has no channel left to report through
		os.Stdout.Write(w.Body.Bytes())
	}
	return nil
}

// splitKeys parses the -api-keys flag.
func splitKeys(csv string) []string {
	var keys []string
	for _, k := range strings.Split(csv, ",") {
		if k = strings.TrimSpace(k); k != "" {
			keys = append(keys, k)
		}
	}
	return keys
}

// source is where the flags say the corpora come from: the -known and
// -query files or, without -known, the (main, alter-ego) split of a world
// generated from the same seed on every load (a reload changes nothing).
type source struct {
	pipe           *darklight.Pipeline
	known, query   string
	forum          string
	scale          float64
	seed           uint64
	polish, refine bool

	mu       sync.Mutex // guards the world's halves not yet handed out
	main, ae *forum.Dataset
}

// knownDataset is the corpus to index: the prepared -known file, or the
// world's main half.
func (s *source) knownDataset(ctx context.Context) (*forum.Dataset, error) {
	if s.known != "" {
		return prepareDataset(ctx, s.pipe, s.known, s.polish, s.refine)
	}
	return s.worldHalf(ctx, &s.main)
}

// querySubjects is the corpus by-alias requests resolve against: the -query
// file, the world's alter egos, or nil — the known set is the query corpus.
func (s *source) querySubjects(ctx context.Context) (_ []attribution.Subject, err error) {
	var ds *forum.Dataset
	switch {
	case s.query != "":
		ds, err = prepareDataset(ctx, s.pipe, s.query, s.polish, false)
	case s.known == "":
		ds, err = s.worldHalf(ctx, &s.ae)
	default:
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	return s.pipe.Subjects(ds)
}

// worldHalf hands out s.main or s.ae, each once per generated world: the
// half a load asks for first generates, polishes and splits the world, the
// other is taken from it, and a half already taken starts the next world.
func (s *source) worldHalf(ctx context.Context, half **forum.Dataset) (*forum.Dataset, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if *half == nil {
		world, err := darklight.GenerateWorld(darklight.WorldConfig{Seed: s.seed, Scale: s.scale})
		if err != nil {
			return nil, err
		}
		d, err := world.Forum(s.forum)
		if err != nil {
			return nil, err
		}
		s.pipe.PolishContext(ctx, d)
		s.main, s.ae = s.pipe.SplitAlterEgos(s.pipe.Refine(d))
	}
	d := *half
	*half = nil
	return d, nil
}

// prepareDataset loads one JSONL dataset and optionally polishes/refines it.
func prepareDataset(ctx context.Context, pipe *darklight.Pipeline, path string, polish, refine bool) (*darklight.Dataset, error) {
	d, err := darklight.LoadJSONL(path, path, forum.PlatformSynthetic)
	if err != nil {
		return nil, err
	}
	if polish {
		pipe.PolishContext(ctx, d)
	}
	if refine {
		d = pipe.Refine(d)
	}
	if d.Len() == 0 {
		return nil, fmt.Errorf("attributed: %s: no aliases survive preparation", path)
	}
	return d, nil
}

// optionDrift names each matcher option on which the flags and the
// snapshot a cold start took its matcher from disagree — a snapshot carries
// the options it was built with, so without this line the flag is ignored
// in silence. Workers and Incremental are how an index is built, not what
// it answers, and are not compared; "built-in defaults" covers every option
// no flag sets (an index saved by a build with other defaults).
func optionDrift(flags, snapshot attribution.Options) []string {
	f, s := flags.WithDefaults(), snapshot.WithDefaults()
	var drift []string
	if f.K != s.K {
		drift = append(drift, fmt.Sprintf("-k is %v, snapshot has %v", f.K, s.K))
	}
	if f.Threshold != s.Threshold {
		drift = append(drift, fmt.Sprintf("-threshold is %v, snapshot has %v", f.Threshold, s.Threshold))
	}
	f.K, f.Threshold, f.Workers, f.Incremental = s.K, s.Threshold, s.Workers, s.Incremental
	if f != s {
		drift = append(drift, "built-in defaults differ from the snapshot's")
	}
	return drift
}

// rebuildInstead decides what a cold start does when the snapshot did not
// load. A snapshot of another format version is intact, only unreadable by
// this build, and with the corpus it indexed at hand (-known) it is treated
// like no snapshot: the index is rebuilt from the corpus and, with
// -save-index, saved over the old file. Without -known the only source
// would be a generated world, no substitute for an index somebody saved, so
// the error — which names the file and both versions — stands; so does any
// other error.
func rebuildInstead(loadErr error, haveKnown bool) (bool, error) {
	var ve *store.VersionError
	switch {
	case !errors.As(loadErr, &ve):
		return false, loadErr
	case !haveKnown:
		return false, fmt.Errorf("%w: start with -known to rebuild the index from its corpus", loadErr)
	}
	return true, nil
}

// newLoader builds the loader the service calls at startup and on every
// SIGHUP, around the persistent index store. The first load cold-starts from
// the snapshot when one exists (building from the corpus source only when it
// does not); every load — including the SIGHUP reload path — then replays
// any journal deltas above the index's LastSeq onto the live generation, so
// a reload folds freshly scraped threads in without a rebuild. With save
// enabled, each new generation is written back atomically and the journal
// compacted. The query corpus, which depends on none of that, is prepared
// beside it — on a cold start from the beginning, on a reload beside the
// save and the journal compaction: both are single-threaded, so on two cores
// the preparation costs a reload no time of its own, whereas beside the
// fold's two-worker index pass it would take the cores from the requests the
// serving index is still answering.
//
// A nil store (no -index-dir) is the same loader with nothing to load, fold
// or save: every load builds the index from the corpus source again.
func newLoader(st *store.Store, opts attribution.Options, subjOpts attribution.SubjectOptions, save, haveKnown bool,
	knownDS func(context.Context) (*forum.Dataset, error),
	querySubjects func(context.Context) ([]attribution.Subject, error)) serve.Loader {
	var (
		mu  sync.Mutex
		cur *store.Index
	)
	// advance brings cur to the generation to serve: loaded or built when
	// there is none yet, then the journal folded in, saved and compacted. It
	// calls prepare once the generation exists and only single-threaded work
	// is left.
	advance := func(ctx context.Context, prepare func()) error {
		built := false
		why := "no index directory"
		if st != nil {
			why = "no snapshot in " + st.Dir()
		}
		if cur == nil && st != nil && st.HasSnapshot() {
			idx, loadErr := st.Load()
			rebuild, err := rebuildInstead(loadErr, haveKnown)
			switch {
			case err != nil:
				return err
			case rebuild:
				why = loadErr.Error()
			default:
				log.Printf("attributed: cold-started index v%d (%d subjects) from %s", idx.Version, len(idx.Subjects), st.SnapshotPath())
				if drift := optionDrift(opts, idx.Matcher.Options()); len(drift) > 0 {
					log.Printf("attributed: the snapshot's matcher options win over the flags until the index is rebuilt: %s", strings.Join(drift, "; "))
				}
				cur = idx
			}
		}
		if cur == nil {
			ds, err := knownDS(ctx)
			if err != nil {
				return err
			}
			idx, err := store.BuildIndex(ctx, ds, opts, subjOpts)
			if err != nil {
				return err
			}
			log.Printf("attributed: %s, built index v%d from source", why, idx.Version)
			cur = idx
			built = true
		}
		next := cur
		if st != nil {
			entries, err := st.ReadJournal(cur.LastSeq)
			if err != nil {
				return err
			}
			if next, err = store.Replay(ctx, cur, entries, subjOpts); err != nil {
				return err
			}
			if next != cur {
				log.Printf("attributed: replayed %d journal deltas into index v%d (seq %d)", len(entries), next.Version, next.LastSeq)
			}
		}
		prepare()
		if save && (built || next != cur) {
			if err := st.Save(next); err != nil {
				return err
			}
			if err := st.CompactJournal(next.LastSeq); err != nil {
				return err
			}
		}
		cur = next
		return nil
	}
	return func(ctx context.Context) (*serve.Corpus, error) {
		mu.Lock()
		defer mu.Unlock()
		if st == nil {
			cur = nil // nothing persists: every load is a build, like the first
		}
		var (
			wg   sync.WaitGroup
			q    []attribution.Subject
			qerr error
		)
		prepare := sync.OnceFunc(func() {
			wg.Add(1)
			go func() {
				defer wg.Done()
				q, qerr = querySubjects(ctx)
			}()
		})
		if cur == nil {
			prepare() // a whole build or load is ahead: beside it from the start
		}
		err := advance(ctx, prepare)
		wg.Wait() // on every path: the preparation never outlives the load
		if err != nil {
			return nil, err // the index's error before the query corpus's
		}
		if qerr != nil {
			return nil, qerr
		}
		c := &serve.Corpus{Known: cur.Subjects, Query: q, Matcher: cur.Matcher}
		if st != nil {
			// Surfacing LastSeq lets /v1/healthz report how current the serving
			// snapshot is relative to the store's journal.
			c.LastJournalSeq = &cur.LastSeq
		}
		return c, nil
	}
}
