package main

import (
	"fmt"
	"reflect"
	"testing"

	"darklight"
	"darklight/internal/attribution"
	"darklight/internal/prefilter"
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
