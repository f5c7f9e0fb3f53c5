package main

import (
	"errors"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"darklight"
	"darklight/internal/attribution"
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
	other := &store.VersionError{Path: "var/index/index.snap", Got: 1, Want: 2}
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
			wantErr: []string{"var/index/index.snap", "version 1", "version 2", "-known"}},
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
