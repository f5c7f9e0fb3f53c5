package attribution

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"darklight/internal/activity"
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
// one that a ranking mutated would drift.
func TestPreparedQueryMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	known, probes := randomWorld(rng, 40)
	act, err := activity.Build(stamps(9, 30), activity.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	probes = append(probes, Subject{Name: "zero-norm"}, Subject{Name: "activity-only", Activity: act})

	paper := testOptions()
	binding := testOptions()
	binding.Final.MaxWordGrams, binding.Final.MaxCharGrams = 64, 128
	for oi, opts := range []Options{paper, binding} {
		m, err := NewMatcher(known, opts)
		if err != nil {
			t.Fatal(err)
		}
		var buf matchBuffers
		qs := make([]*Query, len(probes))
		for i := range probes {
			qs[i] = m.prepare(&probes[i], &buf)
		}
		text := Weights{Freq: opts.FreqWeight} // nil is all features, the matcher's own
		for _, mode := range []prefilter.Mode{prefilter.ModeDefault, prefilter.ModeExact, prefilter.ModePruned, prefilter.ModeLSH} {
			for wi, w := range []*Weights{nil, &text} {
				for _, k := range []int{1, 10, 40} {
					o := MatchOptions{K: k, Weights: w, Mode: mode}
					for i, q := range qs {
						u := &probes[i]
						label := fmt.Sprintf("options %d mode %v weights %d k %d probe %s", oi, mode, wi, k, u.Name)
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
}
