package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"darklight"
	"darklight/internal/attribution"
	"darklight/internal/forum"
	"darklight/internal/store"
)

// TestRebuildInstead pins what a cold start does with a snapshot that did
// not load: only one of another format version, and only with the corpus at
// hand, is rebuilt over; without -known that error comes back naming the
// file and both versions; damage and I/O errors always come back as they
// are; a snapshot that loaded is used.
func TestRebuildInstead(t *testing.T) {
	other := &store.VersionError{Path: "var/index/index.snap", Got: 2, Want: 3}
	damaged := &store.CorruptError{Path: "var/index/index.snap", Section: "docs", Reason: "digest mismatch"}
	for _, tc := range []struct {
		name      string
		loadErr   error
		haveKnown bool
		rebuild   bool
		wantErr   []string // substrings of the returned error; nil: none
	}{
		{name: "loaded", haveKnown: true},
		{name: "loaded, no -known"},
		{name: "other version with -known", loadErr: other, haveKnown: true, rebuild: true},
		{name: "other version wrapped", loadErr: fmt.Errorf("load: %w", other), haveKnown: true, rebuild: true},
		{name: "other version without -known", loadErr: other,
			wantErr: []string{"var/index/index.snap", "version 2", "version 3", "-known"}},
		{name: "damage with -known", loadErr: damaged, haveKnown: true, wantErr: []string{"digest mismatch"}},
		{name: "missing file", loadErr: os.ErrNotExist, haveKnown: true, wantErr: []string{os.ErrNotExist.Error()}},
	} {
		rebuild, err := rebuildInstead(tc.loadErr, tc.haveKnown)
		if rebuild != tc.rebuild {
			t.Errorf("%s: rebuild = %v, want %v", tc.name, rebuild, tc.rebuild)
		}
		if (err != nil) != (tc.wantErr != nil) {
			t.Errorf("%s: error %v, want one: %v", tc.name, err, tc.wantErr != nil)
			continue
		}
		for _, want := range tc.wantErr {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error %q does not mention %q", tc.name, err, want)
			}
		}
		if err != nil && !errors.Is(err, tc.loadErr) {
			t.Errorf("%s: returned error %v does not wrap the load error", tc.name, err)
		}
	}
}

// TestHandlerTimeoutCoversOnlyTheAPI: a /v1/ request past -timeout gets the
// timeout envelope, while a CPU profile ten times the deadline long — which
// the deadline used to cut off with that same 503 — comes back whole.
func TestHandlerTimeoutCoversOnlyTheAPI(t *testing.T) {
	slow := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-time.After(10 * time.Second):
		}
	})
	h := handler(slow, nil, 100*time.Millisecond)

	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/rank", strings.NewReader("{}")))
	if w.Code != http.StatusServiceUnavailable || !strings.Contains(w.Body.String(), `"code":"timeout"`) {
		t.Errorf("/v1/ request past its deadline: %d %s, want the 503 timeout envelope", w.Code, w.Body)
	}

	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/debug/pprof/profile?seconds=1", nil))
	if body := w.Body.Bytes(); w.Code != http.StatusOK || len(body) < 2 || body[0] != 0x1f || body[1] != 0x8b {
		t.Errorf("/debug/pprof/profile?seconds=1 under a 100 ms -timeout: %d, %d bytes; want a 200 with a gzipped profile", w.Code, len(body))
	}
}

// loaderDataset is a corpus just large enough to index.
func loaderDataset() *forum.Dataset {
	ds := forum.NewDataset("loader", forum.PlatformSynthetic)
	t0 := time.Date(2017, 5, 1, 9, 0, 0, 0, time.UTC)
	for i, body := range []string{
		"the vendor shipped fast and the stealth was better than expected",
		"escrow released after the tracking finally updated on monday",
		"does anyone vouch for this listing the reviews look copied",
	} {
		name := fmt.Sprintf("alias%d", i)
		ds.Add(forum.Alias{Name: name, Messages: []forum.Message{
			{ID: name + "-0", Author: name, Thread: "t", Body: body, PostedAt: t0.Add(time.Duration(i) * time.Hour)},
			{ID: name + "-1", Author: name, Thread: "t", Body: body + " again and again", PostedAt: t0.Add(time.Duration(30+i) * time.Hour)},
		}})
	}
	return ds
}

// TestSourceGeneratesOneWorldPerLoad: without -known the two halves of a
// load come from one generated world, whichever is asked for first, and the
// next load's first request generates the next.
func TestSourceGeneratesOneWorldPerLoad(t *testing.T) {
	src := &source{pipe: darklight.NewPipeline(), forum: "reddit", scale: 0.01, seed: 1, refine: true}
	ctx := context.Background()
	for load := 1; load <= 2; load++ {
		known, err := src.knownDataset(ctx)
		if err != nil || known.Len() == 0 {
			t.Fatalf("load %d: known dataset %v, %v", load, known, err)
		}
		ae := src.ae
		if src.main != nil || ae == nil {
			t.Fatalf("load %d: after the known half, main kept %v, alter egos waiting %v", load, src.main != nil, ae != nil)
		}
		subs, err := src.querySubjects(ctx)
		if err != nil || len(subs) != ae.Len() || len(subs) == 0 {
			t.Fatalf("load %d: %d query subjects, %v; want the waiting half's %d", load, len(subs), err, ae.Len())
		}
		if src.main != nil || src.ae != nil {
			t.Fatalf("load %d: a half is left over for the next load", load)
		}
	}
	src.forum = "nope"
	if _, err := src.querySubjects(ctx); err == nil || !strings.Contains(err.Error(), `unknown forum "nope"`) {
		t.Errorf("unknown forum: %v", err)
	}
}

// countingSource is a corpus source for the loader tests: loaderDataset plus
// whatever aliases the test has added since, counting how often each side is
// asked.
type countingSource struct {
	extra                  []forum.Alias
	knownCalls, queryCalls int
}

func (s *countingSource) knownDS(context.Context) (*forum.Dataset, error) {
	s.knownCalls++
	ds := loaderDataset()
	for _, a := range s.extra {
		ds.Add(a)
	}
	return ds, nil
}

func (s *countingSource) querySubjects(context.Context) ([]attribution.Subject, error) {
	s.queryCalls++
	return []attribution.Subject{{Name: "q"}}, nil
}

func loaderOptions() (attribution.Options, attribution.SubjectOptions) {
	return darklight.NewPipeline().MatcherOptions(), attribution.SubjectOptions{WithActivity: true, Workers: 2}
}

// TestLoaderWithoutDirectory: with no store the one loader still hands serve
// a pre-built matcher, reports no journal position, and builds from the
// source again on every load — a reload sees what the source has by then.
func TestLoaderWithoutDirectory(t *testing.T) {
	opts, subjOpts := loaderOptions()
	src := &countingSource{}
	load := newLoader(nil, opts, subjOpts, false, true, src.knownDS, src.querySubjects)
	ctx := context.Background()

	c, err := load(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Known) != 3 || len(c.Query) != 1 || c.Matcher == nil || c.Matcher.NumKnown() != 3 || c.LastJournalSeq != nil {
		t.Fatalf("first load: %d known, %d query subjects, matcher %v, journal seq %v", len(c.Known), len(c.Query), c.Matcher != nil, c.LastJournalSeq)
	}
	late := loaderDataset().Aliases[0]
	late.Name = "latecomer"
	src.extra = append(src.extra, late)
	first := c.Matcher
	if c, err = load(ctx); err != nil {
		t.Fatal(err)
	}
	if len(c.Known) != 4 || c.Matcher == first || c.Matcher.NumKnown() != 4 {
		t.Errorf("reload: %d known subjects, matcher rebuilt %v; want the source re-read", len(c.Known), c.Matcher != first)
	}
	if src.knownCalls != 2 || src.queryCalls != 2 {
		t.Errorf("two loads asked the source for %d known datasets and %d query corpora, want 2 and 2", src.knownCalls, src.queryCalls)
	}
}

// TestLoaderWithDirectory walks one index directory through the loader's
// life: the first start builds from the source and saves; a restart takes
// the snapshot and must not ask the source for the known dataset; a reload
// folds an appended journal entry in and reports its sequence; and a
// snapshot of another format version is, with -known, rebuilt over.
func TestLoaderWithDirectory(t *testing.T) {
	dir := t.TempDir()
	opts, subjOpts := loaderOptions()
	ctx := context.Background()
	open := func() *store.Store {
		t.Helper()
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}

	src := &countingSource{}
	st := open()
	c, err := newLoader(st, opts, subjOpts, true, true, src.knownDS, src.querySubjects)(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if src.knownCalls != 1 || !st.HasSnapshot() || len(c.Known) != 3 || c.LastJournalSeq == nil || *c.LastJournalSeq != 0 {
		t.Fatalf("first start: %d source reads, snapshot saved %v, %d known, journal seq %v", src.knownCalls, st.HasSnapshot(), len(c.Known), c.LastJournalSeq)
	}

	st = open()
	noSource := func(context.Context) (*forum.Dataset, error) {
		t.Error("a start from a snapshot asked the source for the known dataset")
		return loaderDataset(), nil
	}
	restarted := newLoader(st, opts, subjOpts, true, true, noSource, src.querySubjects)
	if c, err = restarted(ctx); err != nil {
		t.Fatal(err)
	}
	if len(c.Known) != 3 || c.Matcher == nil || len(c.Query) != 1 || *c.LastJournalSeq != 0 {
		t.Fatalf("restart: %d known, %d query subjects, matcher %v, journal seq %d", len(c.Known), len(c.Query), c.Matcher != nil, *c.LastJournalSeq)
	}

	msg := loaderDataset().Aliases[0].Messages[0]
	msg.ID, msg.Author = "new-0", "newcomer"
	seq, err := st.AppendThread(forum.ThreadRecord{Thread: "t2", Messages: []forum.Message{msg}})
	if err != nil {
		t.Fatal(err)
	}
	if c, err = restarted(ctx); err != nil {
		t.Fatal(err)
	}
	if len(c.Known) != 4 || c.Matcher.NumKnown() != 4 || *c.LastJournalSeq != seq {
		t.Fatalf("reload after an append at seq %d: %d known subjects, journal seq %d", seq, len(c.Known), *c.LastJournalSeq)
	}

	// Another format version: the u32 after the 8-byte magic.
	raw, err := os.ReadFile(st.SnapshotPath())
	if err != nil {
		t.Fatal(err)
	}
	raw[8]++
	if err := os.WriteFile(st.SnapshotPath(), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	st = open()
	var ve *store.VersionError
	if _, err := newLoader(st, opts, subjOpts, true, false, src.knownDS, src.querySubjects)(ctx); !errors.As(err, &ve) {
		t.Fatalf("other format version without -known: %v, want the VersionError", err)
	}
	if c, err = newLoader(st, opts, subjOpts, true, true, src.knownDS, src.querySubjects)(ctx); err != nil {
		t.Fatalf("other format version with -known: %v", err)
	}
	if src.knownCalls != 2 || len(c.Known) != 3 {
		t.Errorf("rebuild over the old snapshot: %d source reads, %d known subjects; want 2 and 3", src.knownCalls, len(c.Known))
	}
	if _, err := open().Load(); err != nil {
		t.Errorf("the rebuilt index was not saved over the old snapshot: %v", err)
	}
}

// TestSnapshotDoesNotDependOnTheKnownPath: the same -known file in two
// directories, each loaded with -save-index, gives byte-identical snapshots:
// the corpus is named by the file's base name, not by where it sits.
func TestSnapshotDoesNotDependOnTheKnownPath(t *testing.T) {
	opts, subjOpts := loaderOptions()
	var snaps [2][]byte
	for i := range snaps {
		dir := t.TempDir()
		path := filepath.Join(dir, "known.jsonl")
		if err := darklight.SaveJSONL(path, loaderDataset()); err != nil {
			t.Fatal(err)
		}
		st, err := store.Open(filepath.Join(dir, "index"))
		if err != nil {
			t.Fatal(err)
		}
		src := &source{pipe: darklight.NewPipeline(), known: path}
		if _, err := newLoader(st, opts, subjOpts, true, true, src.knownDataset, src.querySubjects)(context.Background()); err != nil {
			t.Fatal(err)
		}
		if snaps[i], err = os.ReadFile(st.SnapshotPath()); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(snaps[0], snaps[1]) {
		t.Errorf("the same known.jsonl in two directories saved snapshots of %d and %d bytes that differ", len(snaps[0]), len(snaps[1]))
	}
}

// TestStoreLoaderPreparesQueriesBesideTheIndex: on a cold start the query
// corpus is being prepared while the index is still being built (the build
// here waits for it to have started: the old order, one after the other,
// times out); it is prepared again on every load, is joined before the
// loader returns on the error paths too, and loses to an index error when
// both fail.
func TestStoreLoaderPreparesQueriesBesideTheIndex(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opts := darklight.NewPipeline().MatcherOptions()
	subjOpts := attribution.SubjectOptions{WithActivity: true, Workers: 2}
	errIndex, errQuery := errors.New("corpus source failed"), errors.New("query file failed")

	var (
		queryStarted           = make(chan struct{}, 1)
		indexFinishing         = make(chan struct{}, 1)
		queryCalls, queryEnded atomic.Int32
		failIndex, failQuery   atomic.Bool
	)
	knownDS := func(context.Context) (*forum.Dataset, error) {
		select {
		case <-queryStarted:
		case <-time.After(10 * time.Second):
			return nil, errors.New("the query corpus was not being prepared while the index was built")
		}
		indexFinishing <- struct{}{}
		if failIndex.Load() {
			return nil, errIndex
		}
		return loaderDataset(), nil
	}
	querySubjects := func(context.Context) ([]attribution.Subject, error) {
		queryCalls.Add(1)
		defer queryEnded.Add(1)
		if st.HasSnapshot() {
			return []attribution.Subject{{Name: "q"}}, nil // a reload: no build to meet
		}
		queryStarted <- struct{}{}
		// Outlast the index side: a loader that did not join would return first.
		<-indexFinishing
		time.Sleep(20 * time.Millisecond)
		if failQuery.Load() {
			return nil, errQuery
		}
		return []attribution.Subject{{Name: "q"}}, nil
	}
	load := newLoader(st, opts, subjOpts, true, true, knownDS, querySubjects)
	ctx := context.Background()

	failIndex.Store(true)
	failQuery.Store(true)
	if _, err := load(ctx); !errors.Is(err, errIndex) {
		t.Fatalf("both sides failing: %v, want the index error", err)
	}
	failIndex.Store(false)
	if _, err := load(ctx); !errors.Is(err, errQuery) {
		t.Fatalf("query side failing: %v, want the query error", err)
	}
	if queryCalls.Load() != 2 || queryEnded.Load() != 2 {
		t.Fatalf("after two failed loads: %d preparations started, %d finished before the loader returned", queryCalls.Load(), queryEnded.Load())
	}
	if st.HasSnapshot() {
		// The second load built and saved before its query side failed.
		if err := os.Remove(st.SnapshotPath()); err != nil {
			t.Fatal(err)
		}
	}

	failQuery.Store(false)
	fresh := newLoader(st, opts, subjOpts, true, true, knownDS, querySubjects)
	c, err := fresh(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Known) != 3 || len(c.Query) != 1 || c.Matcher == nil || !st.HasSnapshot() {
		t.Fatalf("cold build served %d known, %d query subjects, matcher %v, snapshot saved %v", len(c.Known), len(c.Query), c.Matcher != nil, st.HasSnapshot())
	}
	if c, err = fresh(ctx); err != nil || len(c.Query) != 1 {
		t.Fatalf("reload: %v", err)
	}
	if queryCalls.Load() != 4 || queryEnded.Load() != 4 {
		t.Errorf("a cold start and a reload after two failed loads: %d preparations started, %d finished, want 4 and 4", queryCalls.Load(), queryEnded.Load())
	}
}

// writeQueryFile writes d as the JSONL file a -query flag names.
func writeQueryFile(t *testing.T, path string, d *forum.Dataset) {
	t.Helper()
	if err := darklight.SaveJSONL(path, d); err != nil {
		t.Fatal(err)
	}
}

// TestQueryFileMemo: the -query corpus is prepared again only when the
// file's bytes change. An unchanged file hands back the very subjects of the
// last load; a rewritten message gives what a fresh preparation of the new
// file gives; a file that cannot be read is an error and empties the memo,
// so the next good file is prepared afresh even when its bytes are the ones
// prepared before.
func TestQueryFileMemo(t *testing.T) {
	path := filepath.Join(t.TempDir(), "query.jsonl")
	writeQueryFile(t, path, loaderDataset())
	pipe := darklight.NewPipeline()
	src := &source{pipe: pipe, known: "known.jsonl", query: path}
	ctx := context.Background()

	first, err := src.querySubjects(ctx)
	if err != nil || len(first) != 3 {
		t.Fatalf("first load: %d subjects, %v", len(first), err)
	}
	again, err := src.querySubjects(ctx)
	if err != nil || len(again) != len(first) || &again[0] != &first[0] {
		t.Fatalf("unchanged file: %d subjects, %v; want the first load's own", len(again), err)
	}

	edited := loaderDataset()
	edited.Aliases[1].Messages[0].Body = "the escrow dispute was settled in the buyer's favour after a week"
	writeQueryFile(t, path, edited)
	got, err := src.querySubjects(ctx)
	if err != nil {
		t.Fatal(err)
	}
	d, err := darklight.LoadJSONL(path, path, forum.PlatformSynthetic)
	if err != nil {
		t.Fatal(err)
	}
	if d, err = prepareDataset(ctx, pipe, d, false); err != nil {
		t.Fatal(err)
	}
	want, err := pipe.Subjects(d)
	if err != nil {
		t.Fatal(err)
	}
	if &got[0] == &first[0] || !reflect.DeepEqual(got, want) {
		t.Fatal("a rewritten message: the subjects are not a fresh preparation of the new file")
	}

	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if subs, err := src.querySubjects(ctx); err == nil || subs != nil {
		t.Fatalf("removed file: %d subjects, error %v; want an error and no subjects", len(subs), err)
	}
	writeQueryFile(t, path, edited)
	back, err := src.querySubjects(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if &back[0] == &got[0] || !reflect.DeepEqual(back, want) {
		t.Fatal("after a failed read the same bytes were served from the memo, not prepared afresh")
	}
}

// TestLoaderReusesUnchangedQueryCorpus: a reload over an unchanged -query
// file serves the previous generation's query subjects while it folds the
// journal into the index.
func TestLoaderReusesUnchangedQueryCorpus(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "query.jsonl")
	writeQueryFile(t, path, loaderDataset())
	st, err := store.Open(filepath.Join(dir, "index"))
	if err != nil {
		t.Fatal(err)
	}
	opts, subjOpts := loaderOptions()
	known := &countingSource{}
	src := &source{pipe: darklight.NewPipeline(), known: "known.jsonl", query: path}
	load := newLoader(st, opts, subjOpts, true, true, known.knownDS, src.querySubjects)
	ctx := context.Background()

	first, err := load(ctx)
	if err != nil {
		t.Fatal(err)
	}
	msg := loaderDataset().Aliases[0].Messages[0]
	msg.ID, msg.Author = "new-0", "newcomer"
	if _, err := st.AppendThread(forum.ThreadRecord{Thread: "t2", Messages: []forum.Message{msg}}); err != nil {
		t.Fatal(err)
	}
	next, err := load(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(next.Known) != 4 || len(next.Query) != 3 || &next.Query[0] != &first.Query[0] {
		t.Fatalf("reload: %d known, %d query subjects, query corpus shared %v; want 4, 3 and the previous generation's",
			len(next.Known), len(next.Query), len(next.Query) > 0 && &next.Query[0] == &first.Query[0])
	}
}
