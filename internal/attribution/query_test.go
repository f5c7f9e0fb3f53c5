package attribution

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"darklight/internal/activity"
	"darklight/internal/features"
	"darklight/internal/prefilter"
)

// TestPreparedQueryMatchesFresh: a Query prepared once answers every
// ranking, match and rescore bit for bit as the one-shot entry points do,
// which prepare the unknown afresh on every call — under every pre-filter
// mode, the all-features weighting (the matcher's own) and text only, k
// of 1, 10 and 40, for randomWorld's probes plus a zero-norm one and one
// with activity but no text, under the paper's budgets and under final
// budgets the cut binds. Every query is prepared on one scratch before any is
// asked, so a Query that kept the scratch's vector instead of its own would
// answer with the last one prepared; and each is asked again and again, so
// one that a ranking mutated would drift. The same holds for queries
// PrepareCarried prepares on a Fold of the matcher from the extractions it
// packed on the matcher itself: the fold adds grams the probes hold that the
// first dictionary lacked and, replacing a subject, takes grams out of it,
// so every gram number moves and only the ids carry.
func TestPreparedQueryMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	known, probes := randomWorld(rng, 40)
	act, err := activity.Build(stamps(9, 30), activity.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	probes = append(probes, Subject{Name: "zero-norm"}, Subject{Name: "activity-only", Activity: act})
	// The newcomer writes every probe's text; the replaced subject's own
	// word (pwNq, randomWorld's per-author marker) leaves with it.
	var all strings.Builder
	for i := range probes {
		all.WriteString(probes[i].Text)
	}
	batch := []Subject{{Name: "known999", Text: all.String()}, {Name: known[7].Name, Text: known[3].Text}}

	paper := testOptions()
	binding := testOptions()
	binding.Final.MaxWordGrams, binding.Final.MaxCharGrams = 64, 128
	for oi, opts := range []Options{paper, binding} {
		opts.Incremental = true
		m1, err := NewMatcher(known, opts)
		if err != nil {
			t.Fatal(err)
		}
		var buf matchBuffers
		fresh := make([]*Query, len(probes))
		carried := make([]*features.PackedDoc, len(probes))
		for i := range probes {
			fresh[i] = m1.prepare(&probes[i], &buf)
			_, carried[i] = m1.PrepareCarried(&probes[i], nil)
		}
		m2, err := m1.Fold(context.Background(), batch)
		if err != nil {
			t.Fatal(err)
		}
		assertGramsMoved(t, m1, m2, probes)
		onFold := make([]*Query, len(probes))
		for i := range probes {
			q, x := m2.PrepareCarried(&probes[i], carried[i])
			if x != carried[i] {
				t.Fatalf("probe %d: a carried extraction was not handed back", i)
			}
			onFold[i] = q
		}
		for _, in := range []struct {
			name string
			m    *Matcher
			qs   []*Query
		}{{"prepared", m1, fresh}, {"carried across a fold", m2, onFold}} {
			assertQueriesMatchFresh(t, fmt.Sprintf("options %d %s", oi, in.name), in.m, opts, in.qs, probes)
		}
	}
}

// assertGramsMoved fails unless the probes hold grams m2's dictionary
// numbers and m1's lacks, and m1's dictionary holds grams m2's lacks.
func assertGramsMoved(t *testing.T, m1, m2 *Matcher, probes []Subject) {
	t.Helper()
	s1, err := m1.State()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := m2.State()
	if err != nil {
		t.Fatal(err)
	}
	ids := func(grams []features.GramCount) map[features.GramID]bool {
		out := make(map[features.GramID]bool, len(grams))
		for _, g := range grams {
			out[g.ID] = true
		}
		return out
	}
	w1, c1, w2, c2 := ids(s1.Stats.Words), ids(s1.Stats.Chars), ids(s2.Stats.Words), ids(s2.Stats.Chars)
	entered := 0
	for i := range probes {
		words, chars := gramsOf(features.Extract(probes[i].Text, m1.opts.Reduction))
		for _, fam := range [...]struct {
			grams  []features.GramCount
			m1, m2 map[features.GramID]bool
		}{{words, w1, w2}, {chars, c1, c2}} {
			for _, e := range fam.grams {
				if fam.m2[e.ID] && !fam.m1[e.ID] {
					entered++
				}
			}
		}
	}
	left := 0
	for _, fam := range [...]struct{ m1, m2 map[features.GramID]bool }{{w1, w2}, {c1, c2}} {
		for id := range fam.m1 {
			if !fam.m2[id] {
				left++
			}
		}
	}
	if entered == 0 || left == 0 {
		t.Fatalf("fixture defect: the fold brought %d of the probes' grams into the dictionary and took %d out", entered, left)
	}
}

// assertQueriesMatchFresh asks each of qs, prepared on m for probes,
// everything the test asks, against m's one-shot entry points.
func assertQueriesMatchFresh(t *testing.T, name string, m *Matcher, opts Options, qs []*Query, probes []Subject) {
	t.Helper()
	text := Weights{Freq: opts.FreqWeight} // nil is all features, the matcher's own
	for _, mode := range []prefilter.Mode{prefilter.ModeDefault, prefilter.ModeExact, prefilter.ModePruned, prefilter.ModeLSH} {
		for wi, w := range []*Weights{nil, &text} {
			for _, k := range []int{1, 10, 40} {
				o := MatchOptions{K: k, Weights: w, Mode: mode}
				for i, q := range qs {
					u := &probes[i]
					label := fmt.Sprintf("%s mode %v weights %d k %d probe %s", name, mode, wi, k, u.Name)
					got, gst := q.Rank(o)
					want, wst := m.RankDetailed(u, o)
					assertSameScores(t, label+" rank", got, want)
					if gst != wst {
						t.Fatalf("%s: prepared scan %+v, fresh %+v", label, gst, wst)
					}
					assertSameScores(t, label+" rescore", q.Rescore(want), m.Rescore(u, want))
					gm, wm := q.Match(o), m.MatchWith(u, o)
					assertSameScores(t, label+" match candidates", gm.Candidates, wm.Candidates)
					assertSameScores(t, label+" match rescored", gm.Rescored, wm.Rescored)
					if gm.Unknown != wm.Unknown || gm.Best.Name != wm.Best.Name ||
						math.Float64bits(gm.Best.Score) != math.Float64bits(wm.Best.Score) || gm.Accepted != wm.Accepted {
						t.Fatalf("%s: prepared match %+v, fresh %+v", label, gm, wm)
					}
				}
			}
		}
	}
}

// TestCarriedPrepareAllocation: preparing from a carried extraction numbers
// its packed ids straight into the Query's own document, so a call
// allocates per entry of the extraction what the Query keeps — its numbered
// lists, about two bytes an entry, and its gram vector, twelve bytes a
// selected gram — and no transient list of the entries. The least a call
// allocates is measured, since under -race the pool drops scratch at
// random. Measured: 11.5 B an entry, where unpacking the extraction into a
// 16-byte-an-entry list first read 27.8.
func TestCarriedPrepareAllocation(t *testing.T) {
	authors := makeAuthors(t, 20, 1500)
	known, probes := split(authors)
	m, err := NewMatcher(known, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	probe := &probes[3]
	_, x := m.PrepareCarried(probe, nil)
	least := uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for range 20 {
		runtime.ReadMemStats(&before)
		m.PrepareCarried(probe, x)
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	perEntry := float64(least) / float64(x.Entries())
	t.Logf("%d entries, %.1f B an entry", x.Entries(), perEntry)
	const ceiling = 16
	if perEntry > ceiling {
		t.Errorf("a carried prepare allocates %.1f B an entry of its extraction, ceiling %d", perEntry, ceiling)
	}
}
