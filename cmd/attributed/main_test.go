package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"darklight"
	"darklight/internal/attribution"
	"darklight/internal/forum"
	"darklight/internal/prefilter"
	"darklight/internal/store"
)

// TestOptionDrift pins the cold-start warning: each flag-settable matcher
// option that differs from the snapshot's is named once, options resolved
// from their zero values do not count as differing, how the index was built
// (Workers, Incremental) is ignored, and anything no flag sets is reported
// as a difference in built-in defaults.
func TestOptionDrift(t *testing.T) {
	base := darklight.NewPipeline().MatcherOptions()
	// What Matcher.Options reports for an index store.BuildIndex built from
	// base on some other machine.
	snap := base.WithDefaults()
	snap.Incremental = true
	snap.Workers = 17

	for _, tc := range []struct {
		name string
		flag func(o *attribution.Options)
		snap func(o *attribution.Options)
		want []string
	}{
		{name: "same options"},
		{name: "explicit defaults", flag: func(o *attribution.Options) {
			o.K, o.Prefilter.Mode, o.Prefilter.LSH.Bands = attribution.DefaultK, prefilter.ModeExact, prefilter.DefaultBands
		}},
		{name: "k and threshold", flag: func(o *attribution.Options) { o.K, o.Threshold = 5, 0.5 },
			want: []string{"-k is 5, snapshot has 10", "-threshold is 0.5, snapshot has 0.419"}},
		{name: "older build defaulted to pruned", snap: func(o *attribution.Options) { o.Prefilter.Mode = prefilter.ModePruned },
			want: []string{"-prefilter is exact, snapshot has pruned"}},
		{name: "lsh geometry", flag: func(o *attribution.Options) {
			o.Prefilter.Mode, o.Prefilter.LSH.Bands, o.Prefilter.LSH.Rows = prefilter.ModeLSH, 8, 4
		},
			want: []string{"-prefilter is lsh, snapshot has exact", fmt.Sprintf("-lsh-bands is 8, snapshot has %d", prefilter.DefaultBands), fmt.Sprintf("-lsh-rows is 4, snapshot has %d", prefilter.DefaultRows)}},
		{name: "no flag for it", snap: func(o *attribution.Options) { o.Final.MaxWordGrams = 1000 },
			want: []string{"built-in defaults differ from the snapshot's"}},
	} {
		f, s := base, snap
		if tc.flag != nil {
			tc.flag(&f)
		}
		if tc.snap != nil {
			tc.snap(&s)
		}
		if got := optionDrift(f, s); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: drift %q, want %q", tc.name, got, tc.want)
		}
	}
}

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
	load := makeStoreLoader(st, opts, subjOpts, true, true, knownDS, querySubjects)
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
	fresh := makeStoreLoader(st, opts, subjOpts, true, true, knownDS, querySubjects)
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
