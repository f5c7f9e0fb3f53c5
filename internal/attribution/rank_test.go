package attribution

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"darklight/internal/activity"
	"darklight/internal/prefilter"
)

// randomWorld builds a known set and probe set with deliberately messy
// variety: authors with shared and private vocabulary, empty documents,
// missing activity profiles, and probes ranging from near-duplicates of a
// known subject to pure noise. Everything derives from rng, so each seed
// is one reproducible world.
func randomWorld(rng *rand.Rand, n int) (known, probes []Subject) {
	genText := func(r *rand.Rand, pref []string, words int) string {
		var b strings.Builder
		for w := 0; w < words; w++ {
			if len(pref) > 0 && r.Float64() < 0.5 {
				b.WriteString(pref[r.Intn(len(pref))])
			} else {
				b.WriteString(sharedVocab[r.Intn(len(sharedVocab))])
			}
			if r.Float64() < 0.1 {
				b.WriteString(",")
			}
			b.WriteByte(' ')
		}
		return b.String()
	}
	prefs := make([][]string, n)
	for i := 0; i < n; i++ {
		pref := make([]string, 0, 8)
		for _, j := range rng.Perm(len(sharedVocab))[:5+rng.Intn(10)] {
			pref = append(pref, sharedVocab[j])
		}
		pref = append(pref, fmt.Sprintf("pw%dq", i))
		prefs[i] = pref

		s := Subject{Name: fmt.Sprintf("known%03d", i)}
		switch rng.Intn(10) {
		case 0: // empty document
		case 1: // tiny document
			s.Text = genText(rng, pref, 3)
		default:
			s.Text = genText(rng, pref, 40+rng.Intn(300))
		}
		if rng.Float64() < 0.7 {
			s.Timestamps = stamps(rng.Intn(24), 20+rng.Intn(30))
			if p, err := activity.Build(s.Timestamps, activity.Options{}); err == nil {
				s.Activity = p
			}
		}
		known = append(known, s)
	}
	nprobe := 4 + rng.Intn(6)
	for i := 0; i < nprobe; i++ {
		p := Subject{Name: fmt.Sprintf("probe%03d", i)}
		switch rng.Intn(6) {
		case 0: // zero-norm probe: empty text, no activity
		case 1: // noise probe
			p.Text = genText(rng, nil, 50+rng.Intn(100))
		default: // styled like a random known author
			j := rng.Intn(n)
			p.Text = genText(rng, prefs[j], 40+rng.Intn(300))
			if rng.Float64() < 0.7 {
				p.Timestamps = stamps(rng.Intn(24), 25)
				if ap, err := activity.Build(p.Timestamps, activity.Options{}); err == nil {
					p.Activity = ap
				}
			}
		}
		probes = append(probes, p)
	}
	return known, probes
}

// TestPrunedBitIdenticalToExact is the losslessness property test: across
// random worlds, random weights, random k, and random pruning knobs
// (including a slack far below the default), the pruned top-k must equal
// the exact scan's bit for bit — same names, same order, same float64
// score bits. A knob-less query (ModeDefault) is held to the same standard
// and must report that it ran as exact.
func TestPrunedBitIdenticalToExact(t *testing.T) {
	trials := 12
	if testing.Short() {
		trials = 4
	}
	weights := []Weights{{}, {Freq: 0.2}, {Freq: 0.2, Activity: 0.7}, {Freq: 1.3, Activity: 0.1}, {Activity: 2.5}}
	knobs := []prefilter.PrunedParams{
		{},                             // defaults
		{Slack: 1e-12, TailShare: -1},  // minimal slack, full walk
		{Slack: 1e-12, TailShare: 0.5}, // minimal slack, aggressive early stop
		{Slack: 0.05, TailShare: 0.9},  // loose everything
		{Slack: prefilter.DefaultSlack * 10, TailShare: 0.2},
	}
	for trial := 0; trial < trials; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("world%d", trial), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(4000 + trial)))
			n := 15 + rng.Intn(45)
			known, probes := randomWorld(rng, n)
			opts := DefaultOptions()
			opts.Workers = 2
			opts.UseActivity = rng.Intn(2) == 0
			m, err := NewMatcher(known, opts)
			if err != nil {
				t.Fatal(err)
			}
			for pi := range probes {
				w := weights[rng.Intn(len(weights))]
				k := 1 + rng.Intn(n+5)
				ps := knobs[rng.Intn(len(knobs))]
				exact, stE := m.RankDetailed(&probes[pi], MatchOptions{K: k, Weights: &w, Mode: prefilter.ModeExact})
				pruned, stP := m.RankDetailed(&probes[pi], MatchOptions{K: k, Weights: &w, Mode: prefilter.ModePruned, Pruned: &ps})
				def, stD := m.RankDetailed(&probes[pi], MatchOptions{K: k, Weights: &w})
				if stE.Mode != prefilter.ModeExact || stD.Mode != prefilter.ModeExact {
					t.Fatalf("probe %d: exact ran as %v, default as %v", pi, stE.Mode, stD.Mode)
				}
				if stP.Scored+stP.Pruned != n {
					t.Fatalf("probe %d: stats do not cover the known set: %+v", pi, stP)
				}
				for _, c := range []struct {
					mode string
					got  []Scored
				}{{"pruned", pruned}, {"default", def}} {
					if len(c.got) != len(exact) {
						t.Fatalf("probe %d (k=%d, knobs=%+v): %s returned %d entries, exact %d",
							pi, k, ps, c.mode, len(c.got), len(exact))
					}
					for j := range exact {
						if c.got[j].Name != exact[j].Name ||
							math.Float64bits(c.got[j].Score) != math.Float64bits(exact[j].Score) {
							t.Fatalf("probe %d (k=%d, knobs=%+v): rank %d diverges:\n%s %q %v (%x)\nexact  %q %v (%x)",
								pi, k, ps, j, c.mode,
								c.got[j].Name, c.got[j].Score, math.Float64bits(c.got[j].Score),
								exact[j].Name, exact[j].Score, math.Float64bits(exact[j].Score))
						}
					}
				}
			}
		})
	}
}

// TestExactIsDefaultMode pins how stage 1's engine is picked: a query that
// names no mode runs the exact scan, and MatchOptions.Mode is the one way to
// run another.
func TestExactIsDefaultMode(t *testing.T) {
	authors := makeAuthors(t, 12, 300)
	known, probes := split(authors)
	m, err := NewMatcher(known, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	_, st := m.RankDetailed(&probes[0], MatchOptions{})
	if st.Mode != prefilter.ModeExact {
		t.Fatalf("default mode = %v, want exact", st.Mode)
	}
	for _, mode := range []prefilter.Mode{prefilter.ModePruned, prefilter.ModeLSH} {
		if _, st = m.RankDetailed(&probes[0], MatchOptions{Mode: mode}); st.Mode != mode {
			t.Fatalf("per-query %v ran as %v", mode, st.Mode)
		}
	}
}

// TestFirstPrunedQueriesAtOnce: the pruned mode's per-term caps are read off
// the posting arena by whichever pruned query comes first. Eight goroutines
// whose first pruned query on a fresh matcher land together must each get the
// exact scan's top-k bit for bit (run under -race in CI).
func TestFirstPrunedQueriesAtOnce(t *testing.T) {
	authors := makeAuthors(t, 20, 300)
	known, probes := split(authors)
	m, err := NewMatcher(known, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]Scored, len(probes))
	for i := range probes {
		want[i], _ = m.RankDetailed(&probes[i], MatchOptions{K: 5, Mode: prefilter.ModeExact})
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			got, st := m.RankDetailed(&probes[i], MatchOptions{K: 5, Mode: prefilter.ModePruned})
			if st.Mode != prefilter.ModePruned || len(got) != len(want[i]) {
				t.Errorf("probe %d: ran as %v, %d entries, want pruned and %d", i, st.Mode, len(got), len(want[i]))
				return
			}
			for j := range got {
				if got[j].Name != want[i][j].Name || math.Float64bits(got[j].Score) != math.Float64bits(want[i][j].Score) {
					t.Errorf("probe %d entry %d = %+v, exact has %+v", i, j, got[j], want[i][j])
				}
			}
		}(g % len(probes))
	}
	close(start)
	wg.Wait()
}

// TestLSHScoresMatchExactForReturnedNames: the approximate mode may miss
// candidates but must never score a returned name differently from the
// exact scan.
func TestLSHScoresMatchExactForReturnedNames(t *testing.T) {
	authors := makeAuthors(t, 30, 400)
	known, probes := split(authors)
	m, err := NewMatcher(known, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	exactByName := make(map[string]float64)
	hits := 0
	for i := range probes {
		exact, _ := m.RankDetailed(&probes[i], MatchOptions{K: len(known), Mode: prefilter.ModeExact})
		for _, c := range exact {
			exactByName[c.Name] = c.Score
		}
		lsh, st := m.RankDetailed(&probes[i], MatchOptions{Mode: prefilter.ModeLSH})
		if st.Mode != prefilter.ModeLSH {
			t.Fatalf("probe %d ran as %v", i, st.Mode)
		}
		if st.Candidates > len(known) {
			t.Fatalf("probe %d: %d candidates out of %d known", i, st.Candidates, len(known))
		}
		for _, c := range lsh {
			want, ok := exactByName[c.Name]
			if !ok {
				t.Fatalf("probe %d: LSH invented candidate %q", i, c.Name)
			}
			if math.Float64bits(c.Score) != math.Float64bits(want) {
				t.Fatalf("probe %d: LSH rescored %q: %v vs exact %v", i, c.Name, c.Score, want)
			}
		}
		// Self-similar probes should usually surface their own author. This
		// world is adversarially homogeneous — every author draws from the
		// same 90-word vocabulary, so same-author Jaccard (~0.34) barely
		// clears different-author (~0.27) and no operating point separates
		// them sharply. The real recall floor is pinned by internal/eval on
		// a population with distinct community vocabularies; here we only
		// assert the mode is usefully better than chance.
		for _, c := range lsh {
			if c.Name == probes[i].Name {
				hits++
				break
			}
		}
	}
	if hits < len(probes)/2 {
		t.Errorf("LSH found the true author for only %d/%d probes", hits, len(probes))
	}
}

// TestLSHEmptyQueryFallsBackLossless: a probe with no gram features cannot
// be hashed; the matcher must quietly use the lossless path instead of
// returning nothing.
func TestLSHEmptyQueryFallsBackLossless(t *testing.T) {
	authors := makeAuthors(t, 8, 200)
	known, _ := split(authors)
	m, err := NewMatcher(known, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Activity only: non-zero norm but an empty gram block.
	probe := Subject{Name: "ghost", Timestamps: stamps(9, 30)}
	if p, err := activity.Build(probe.Timestamps, activity.Options{}); err == nil {
		probe.Activity = p
	}
	if probe.Activity == nil {
		t.Fatal("probe needs an activity profile for this test")
	}
	got, st := m.RankDetailed(&probe, MatchOptions{Mode: prefilter.ModeLSH})
	if st.Mode != prefilter.ModeExact {
		t.Fatalf("empty-gram LSH query ran as %v, want exact fallback", st.Mode)
	}
	exact, _ := m.RankDetailed(&probe, MatchOptions{Mode: prefilter.ModeExact})
	if len(got) != len(exact) {
		t.Fatalf("fallback returned %d entries, exact %d", len(got), len(exact))
	}
	for i := range exact {
		if got[i] != exact[i] {
			t.Fatalf("fallback entry %d = %+v, want %+v", i, got[i], exact[i])
		}
	}
}

// TestRankConcurrentPooledBuffers hammers the bufferless entry points from
// many goroutines: the pooled scratch must never bleed state between
// concurrent queries (run under -race in CI).
func TestRankConcurrentPooledBuffers(t *testing.T) {
	authors := makeAuthors(t, 20, 300)
	known, probes := split(authors)
	m, err := NewMatcher(known, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]Scored, len(probes))
	for i := range probes {
		want[i] = m.Rank(&probes[i], 5)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 5; r++ {
				i := (g + r) % len(probes)
				got := m.Rank(&probes[i], 5)
				for j := range want[i] {
					if got[j] != want[i][j] {
						t.Errorf("goroutine %d: probe %d entry %d = %+v, want %+v", g, i, j, got[j], want[i][j])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestMatchWithThreadsOptions: the two-stage path accepts per-query
// ranking options and stage 2 rescoring still runs over the filtered
// candidates.
func TestMatchWithThreadsOptions(t *testing.T) {
	authors := makeAuthors(t, 15, 400)
	known, probes := split(authors)
	m, err := NewMatcher(known, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	base := m.Match(&probes[3])
	viaOpts := m.MatchWith(&probes[3], MatchOptions{})
	if base.Best != viaOpts.Best || len(base.Candidates) != len(viaOpts.Candidates) {
		t.Fatalf("MatchWith zero options diverges from Match: %+v vs %+v", viaOpts.Best, base.Best)
	}
	lsh := m.MatchWith(&probes[3], MatchOptions{Mode: prefilter.ModeLSH})
	if len(lsh.Rescored) != len(lsh.Candidates) {
		t.Fatalf("stage 2 rescored %d of %d LSH candidates", len(lsh.Rescored), len(lsh.Candidates))
	}
}
