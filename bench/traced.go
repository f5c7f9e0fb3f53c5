package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"darklight"
	"darklight/internal/attribution"
	"darklight/internal/features"
	"darklight/internal/forum"
	"darklight/internal/normalize"
	"darklight/internal/obs"
	"darklight/internal/obs/reqtrace"
	"darklight/internal/prefilter"
	"darklight/internal/serve"
	"darklight/internal/store"
)

// traced is the state of one traced run: the span recorder, the first
// error any layer returned, and what later phases need from earlier ones.
// The run is sequential, one phase after another on one goroutine.
type traced struct {
	rec *spanRecorder
	err error

	world     *world
	knownPath string
	st        *store.Store
	pipe      *darklight.Pipeline

	// Ingest.
	rawMessages int
	report      *normalize.Report
	saveBytes   uint64
	// Cold start.
	idx                    *store.Index
	loadBytes, loadObjects uint64
	handler, reqtraced     http.Handler
	// Request path.
	queries               int // subjects timed layer by layer
	pruned                prefilter.Stats
	lshHits, lshWants     int
	accepted, right       int
	mates                 int
	spansOff, pairedMatch []time.Duration
}

// try runs one layer call inside a span; once a call has failed, later
// ones do nothing, so a phase can be written straight through and the
// error checked at its end.
func (t *traced) try(name string, fn func() error) time.Duration {
	if t.err != nil {
		return 0
	}
	return t.rec.do(name, func() { t.err = fn() })
}

// time is try for a call that cannot fail.
func (t *traced) time(name string, fn func()) time.Duration {
	return t.try(name, func() error { fn(); return nil })
}

// allocDelta runs fn and returns the bytes and objects it allocated.
func allocDelta(fn func()) (bytes, objects uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
}

// ratio is a ÷ b, and 0 when there is nothing to divide by.
func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// ingest is the operator path, corpus file to saved snapshot, under one
// root span whose children must account for it.
func (t *traced) ingest() {
	ctx := context.Background()
	t.try("ingest", func() error {
		var ds *forum.Dataset
		t.try("forum.read_jsonl", func() (err error) {
			ds, err = darklight.LoadJSONL(t.knownPath, t.knownPath, forum.PlatformSynthetic)
			return err
		})
		if t.err != nil {
			return t.err
		}
		t.rawMessages = ds.TotalMessages()
		t.time("normalize.polish", func() { t.report = normalize.NewPipeline().RunContext(ctx, ds) })
		if t.world.refine {
			t.time("corpus.refine", func() { ds = t.pipe.Refine(ds) })
		}
		var idx *store.Index
		t.try("store.build_index", func() (err error) {
			idx, err = store.BuildIndex(ctx, ds, t.pipe.MatcherOptions(), t.pipe.SubjectOptions())
			return err
		})
		t.try("store.save", func() (err error) {
			t.saveBytes, _ = allocDelta(func() { err = t.st.Save(idx) })
			return err
		})
		return t.err
	})
}

// buildBreakdown times the three calls store.BuildIndex makes, on their
// own over the same corpus: spans inside the program are a later change.
func (t *traced) buildBreakdown() {
	if t.err != nil {
		return
	}
	ds, err := darklight.LoadJSONL(t.knownPath, t.knownPath, forum.PlatformSynthetic)
	if err != nil {
		t.err = err
		return
	}
	t.pipe.Polish(ds)
	if t.world.refine {
		ds = t.pipe.Refine(ds)
	}
	ds.SortByName()
	var subjects []attribution.Subject
	t.try("attribution.build_subjects", func() (err error) {
		subjects, err = attribution.BuildSubjects(ds, t.pipe.SubjectOptions())
		return err
	})
	t.try("attribution.new_matcher", func() error {
		opts := t.pipe.MatcherOptions()
		opts.Incremental = true
		_, err := attribution.NewMatcherContext(context.Background(), subjects, opts)
		return err
	})
	t.try("forum.digest", func() error {
		_, err := forum.DigestJSONL(ds)
		return err
	})
}

// serveHandler assembles the serving layer over a ready index, as
// cmd/attributed does after a cold start.
func (t *traced) serveHandler(queries []attribution.Subject, rec *reqtrace.Recorder) (http.Handler, error) {
	svc, err := serve.New(context.Background(), serve.Config{
		Loader: func(context.Context) (*serve.Corpus, error) {
			return &serve.Corpus{Known: t.idx.Subjects, Query: queries, Matcher: t.idx.Matcher}, nil
		},
		Options:  t.pipe.MatcherOptions(),
		Subjects: t.pipe.SubjectOptions(),
		Registry: obs.NewRegistry(),
		Trace:    rec,
	})
	if err != nil {
		return nil, err
	}
	return svc.Handler(), nil
}

// coldStart is snapshot → ready index → serving layer, with and without
// the daemon's request tracing.
func (t *traced) coldStart(queries []attribution.Subject) {
	t.try("store.load", func() (err error) {
		t.loadBytes, t.loadObjects = allocDelta(func() { t.idx, err = t.st.Load() })
		return err
	})
	t.try("serve.new", func() (err error) {
		t.handler, err = t.serveHandler(queries, nil)
		return err
	})
	if t.err == nil {
		// The daemon's default sampling: 1 % kept, slow requests always.
		t.reqtraced, t.err = t.serveHandler(queries, reqtrace.NewRecorder(reqtrace.Options{SampleRate: 0.01, Slow: 250 * time.Millisecond}))
	}
}

// handle sends one request through a handler in process and fails on
// anything but a 200.
func handle(h http.Handler, r request) error {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, r.path, bytes.NewReader(r.body)))
	if w.Code != http.StatusOK {
		return fmt.Errorf("bench: in-process %s %s: status %d: %s", r.kind, r.alias, w.Code, w.Body)
	}
	return nil
}

// rankModes are the stage-1 candidate sources, each timed on every traced
// query.
var rankModes = []struct {
	span string
	mode prefilter.Mode
}{
	{"attribution.rank_default", prefilter.ModeDefault},
	{"attribution.rank_exact", prefilter.ModeExact},
	{"attribution.rank_pruned", prefilter.ModePruned},
	{"attribution.rank_lsh", prefilter.ModeLSH},
}

// requestPath times the request path layer by layer. all is every query
// subject; only the first n get the layer-by-layer treatment.
func (t *traced) requestPath(all []attribution.Subject, n int) {
	if t.err != nil {
		return
	}
	matcher, reduction := t.idx.Matcher, t.pipe.MatcherOptions().Reduction
	queries := all[:min(n, len(all))]
	t.queries = len(queries)

	// LSH tables are built on the first LSH query; keep that out of the
	// per-query time.
	t.time("attribution.lsh_build", func() {
		matcher.RankDetailed(&queries[0], attribution.MatchOptions{K: rankK, Mode: prefilter.ModeLSH})
	})
	// First pass: the index is fresh from Load, so each rescore is a first
	// touch of its candidates' final-config documents.
	candidates := make([][]attribution.Scored, len(queries))
	for i := range queries {
		q := &queries[i]
		t.rec.request = q.Name
		t.time("features.extract", func() { features.Extract(q.Text, reduction) })
		for _, m := range rankModes {
			t.time(m.span, func() {
				scored, stats := matcher.RankDetailed(q, attribution.MatchOptions{K: rankK, Mode: m.mode})
				switch m.mode {
				case prefilter.ModeExact:
					candidates[i] = scored
				case prefilter.ModePruned:
					t.pruned.Scored += stats.Scored
					t.pruned.Candidates += stats.Candidates
					t.pruned.Evictions += stats.Evictions
				case prefilter.ModeLSH:
					t.lshWants += len(candidates[i])
					for _, want := range candidates[i] {
						for _, got := range scored {
							if got.Name == want.Name {
								t.lshHits++
							}
						}
					}
				}
			})
		}
		t.time("attribution.rescore_cold", func() { matcher.Rescore(q, candidates[i]) })
	}

	// Quality: the paper's accept decision (§IV-I, t = 0.4190) for every
	// query subject through the library path, which the end-to-end run has
	// shown the daemon's answers equal. A query's true mate is the known
	// alias of the same name.
	known := make(map[string]bool, len(t.idx.Subjects))
	for i := range t.idx.Subjects {
		known[t.idx.Subjects[i].Name] = true
	}
	for i := range all {
		q := &all[i]
		t.rec.request = q.Name
		t.time("attribution.match", func() {
			res := matcher.MatchWith(q, attribution.MatchOptions{})
			if known[q.Name] {
				t.mates++
			}
			if res.Accepted {
				t.accepted++
				if res.Best.Name == q.Name {
					t.right++
				}
			}
		})
	}

	// Two warm passes. The two sides of each comparison — handler with and
	// without the harness's spans, with and without request tracing, match
	// inside and outside the handler — run back to back on the same query,
	// so drift charges both alike.
	for pass := 0; pass < 2; pass++ {
		for i := range queries {
			q := &queries[i]
			t.rec.request = q.Name
			match, rank, inline := matchRequest(q.Name), rankRequest(q.Name), t.world.inlineRequest(q.Name)
			t.time("attribution.rescore", func() { matcher.Rescore(q, candidates[i]) })
			t.pairedMatch = append(t.pairedMatch,
				t.time("attribution.match", func() { matcher.MatchWith(q, attribution.MatchOptions{}) }))
			t.try("serve.handler_match", func() error { return handle(t.handler, match) })
			t.rec.off = true
			t.spansOff = append(t.spansOff, t.try("serve.handler_match", func() error { return handle(t.handler, match) }))
			t.rec.off = false
			t.try("serve.handler_rank", func() error { return handle(t.handler, rank) })
			t.try("serve.handler_rank.reqtrace", func() error { return handle(t.reqtraced, rank) })
			t.try("serve.handler_inline", func() error { return handle(t.handler, inline) })
		}
	}
	t.rec.request = ""
}

// reloadPath makes the calls a SIGHUP makes, on one journal batch.
func (t *traced) reloadPath() {
	if t.err != nil {
		return
	}
	ctx, subjOpts := context.Background(), t.pipe.SubjectOptions()
	batch := t.world.journalBatch(0)
	for i := range batch {
		t.try("store.append_thread", func() error {
			_, err := t.st.AppendThread(batch[i])
			return err
		})
	}
	var (
		entries []store.JournalEntry
		next    *store.Index
	)
	t.try("store.read_journal", func() (err error) {
		entries, err = t.st.ReadJournal(t.idx.LastSeq)
		return err
	})
	t.try("store.replay", func() (err error) {
		next, err = store.Replay(ctx, t.idx, entries, subjOpts)
		return err
	})
	t.try("store.compact_journal", func() error { return t.st.CompactJournal(next.LastSeq) })
	if t.err != nil {
		return
	}
	// Matcher.Fold alone, on the subjects Replay derives for the batch.
	merged, changed := store.ApplyThreads(t.idx.Dataset, batch)
	mini := forum.NewDataset(merged.Name, merged.Platform)
	for _, name := range changed {
		a, err := merged.Find(name)
		if err != nil {
			t.err = err
			return
		}
		mini.Add(*a)
	}
	folded, err := attribution.BuildSubjects(mini, subjOpts)
	if err != nil {
		t.err = err
		return
	}
	t.try("attribution.fold", func() error {
		_, err := t.idx.Matcher.Fold(ctx, folded)
		return err
	})
}

// Spans reported as a total in seconds, and as a median in milliseconds.
var (
	secondSpans = []string{"forum.read_jsonl", "forum.digest", "normalize.polish", "corpus.refine",
		"attribution.build_subjects", "attribution.new_matcher", "attribution.fold",
		"store.build_index", "store.save", "store.load", "store.read_journal", "store.replay", "store.compact_journal",
		"serve.new"}
	medianSpans = []string{"features.extract", "attribution.rank_default", "attribution.rank_exact",
		"attribution.rank_pruned", "attribution.rank_lsh", "attribution.rescore", "attribution.rescore_cold",
		"attribution.match", "store.append_thread", "serve.handler_match", "serve.handler_rank"}
)

// metrics derives the per-layer numbers from the spans, the counts taken
// beside them, and the short daemon run e2e.
func (t *traced) metrics(e2e *result) (map[string]metric, error) {
	rec := t.rec
	secs := func(name string) float64 { return rec.total(name).Seconds() }
	p50 := func(name string) float64 { return median(msAll(rec.durations(name))) }
	m := make(map[string]metric)
	for _, name := range secondSpans {
		m[name+"_s"] = metric{secs(name), "s"}
	}
	for _, name := range medianSpans {
		m[name+"_ms"] = metric{p50(name), "ms"}
	}
	m["attribution.match_p99_ms"] = metric{percentile(msAll(rec.durations("attribution.match")), 99), "ms"}
	m["attribution.stage1_self_ms"] = metric{p50("attribution.rank_default") - p50("features.extract"), "ms"}
	m["serve.self_ms"] = metric{p50("serve.handler_match") - median(msAll(t.pairedMatch)), "ms"}
	m["serve.inline_subject_ms"] = metric{p50("serve.handler_inline") - p50("serve.handler_rank"), "ms"}
	m["reqtrace.overhead_frac"] = metric{p50("serve.handler_rank.reqtrace")/p50("serve.handler_rank") - 1, "ratio"}

	removed := 0
	for _, s := range t.report.Steps {
		removed += s.MessagesRemoved
	}
	m["normalize.polish_mb_per_s"] = metric{float64(t.report.Steps[0].BytesIn) / mib / secs("normalize.polish"), "MB/s"}
	m["normalize.dropped_frac"] = metric{ratio(removed, t.rawMessages), "ratio"}

	m["prefilter.scored_frac"] = metric{ratio(t.pruned.Scored, t.queries*t.idx.Matcher.NumKnown()), "ratio"}
	m["prefilter.candidates_mean"] = metric{ratio(t.pruned.Candidates, t.queries), "count"}
	m["prefilter.evictions_mean"] = metric{ratio(t.pruned.Evictions, t.queries), "count"}
	m["prefilter.lsh_recall_at_k"] = metric{ratio(t.lshHits, t.lshWants), "ratio"}
	m["quality.precision_at_t"] = metric{ratio(t.right, t.accepted), "ratio"}
	m["quality.recall_at_t"] = metric{ratio(t.right, t.mates), "ratio"}

	snap, err := os.Stat(t.st.SnapshotPath())
	if err != nil {
		return nil, err
	}
	corpusFile, err := os.Stat(t.knownPath)
	if err != nil {
		return nil, err
	}
	m["store.save_alloc_mb"] = metric{float64(t.saveBytes) / mib, "MB"}
	m["store.load_alloc_mb"] = metric{float64(t.loadBytes) / mib, "MB"}
	m["store.load_allocs"] = metric{float64(t.loadObjects), "count"}
	m["store.bytes_per_subject"] = metric{float64(snap.Size()) / float64(len(t.idx.Subjects)), "B"}
	m["store.bytes_per_corpus_byte"] = metric{float64(snap.Size()) / float64(corpusFile.Size()), "ratio"}

	m["runtime.gc_pause_total_ms"] = metric{e2e.gauges["runtime_gc_pause_total_seconds"] * 1000, "ms"}
	m["runtime.gc_runs"] = metric{e2e.gauges["runtime_gc_runs_total"], "count"}
	m["runtime.heap_sys_mb"] = metric{e2e.gauges["runtime_heap_sys_bytes"] / mib, "MB"}

	// Validity of the run itself. The ingest root's children must account
	// for it; what the daemon's build time holds beyond the traced root is
	// process start, query preparation and serve.New.
	root := rec.spans[0] // ingest is the first span the run opens
	m["harness.ingest_sum_gap_frac"] = metric{selfTimes(rec.spans)[root.ID].Seconds() / root.duration().Seconds(), "ratio"}
	m["harness.untraced_gap_s"] = metric{e2e.builds[0].Seconds() - root.duration().Seconds(), "s"}
	m["harness.trace_overhead_frac"] = metric{p50("serve.handler_match")/median(msAll(t.spansOff)) - 1, "ratio"}
	return m, nil
}

// maxIngestGap is the share of the ingest root its child spans may leave
// unexplained before the traced run counts as failed.
const maxIngestGap = 0.05

// runTraced is the per-layer run of a workload: the same inputs, driven in
// process, with a span around each call into a layer's public functions.
// A short untraced daemon run on the same inputs comes first, for the
// numbers only the real process has (its runtime gauges, its build time). It returns the per-layer metrics
// and the tally of everything that was checked along the way.
func (r *runner) runTraced(wl workload, seed uint64) (map[string]metric, *tally, error) {
	short := *r
	short.sz.setupReps = 1
	e2e, err := short.runEndToEnd(wl, seed, time.Duration(r.sz.traceWindow*float64(time.Second)))
	if err != nil {
		return nil, nil, err
	}

	w, err := generateWorld(wl.world, seed, r.sz)
	if err != nil {
		return nil, nil, err
	}
	dir := filepath.Join(r.tmp, wl.name+"-traced")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	knownPath, queryPath, err := w.stage(dir)
	if err != nil {
		return nil, nil, err
	}
	st, err := store.Open(filepath.Join(dir, "index"))
	if err != nil {
		return nil, nil, err
	}
	orc, err := newOracle(queryPath)
	if err != nil {
		return nil, nil, err
	}

	t := &traced{rec: newSpanRecorder(), world: w, knownPath: knownPath, st: st, pipe: orc.pipe}
	t.ingest()
	t.buildBreakdown()
	t.coldStart(orc.subjects)
	t.requestPath(orc.subjects, r.sz.tracedQueries)
	t.reloadPath()
	if t.err != nil {
		return nil, nil, t.err
	}
	if err := t.rec.write(filepath.Join(r.root, "bench", "out", "trace-"+wl.name+".jsonl")); err != nil {
		return nil, nil, err
	}
	m, err := t.metrics(e2e)
	if err != nil {
		return nil, nil, err
	}
	checked := e2e.tally
	if gap := m["harness.ingest_sum_gap_frac"].Value; gap > maxIngestGap {
		checked.fail("ingest breakdown: child spans leave %.1f%% of the ingest root unexplained (limit %.0f%%)", gap*100, maxIngestGap*100)
	} else {
		checked.ok()
	}
	return m, &checked, nil
}
