package attribution

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"darklight/internal/activity"
	"darklight/internal/features"
	"darklight/internal/prefilter"
	"darklight/internal/sparse"
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
			if p, err := activity.Build(stamps(rng.Intn(24), 20+rng.Intn(30)), activity.Options{}, nil); err == nil {
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
				if ap, err := activity.Build(stamps(rng.Intn(24), 25), activity.Options{}, nil); err == nil {
					p.Activity = ap
				}
			}
		}
		probes = append(probes, p)
	}
	return known, probes
}

// TestPrunedBitIdenticalToExact is the losslessness property test: across
// random worlds, random weights and random k, the pruned top-k must equal
// the exact scan's bit for bit — same names, same order, same float64
// score bits. A query that names no mode (ModeDefault) is held to the same
// standard and must report that it ran as exact.
func TestPrunedBitIdenticalToExact(t *testing.T) {
	trials := 12
	if testing.Short() {
		trials = 4
	}
	weights := []Weights{{}, {Freq: 0.2}, {Freq: 0.2, Activity: 0.7}, {Freq: 1.3, Activity: 0.1}, {Activity: 2.5}}
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
				exact, stE := m.RankDetailed(&probes[pi], MatchOptions{K: k, Weights: &w, Mode: prefilter.ModeExact})
				pruned, stP := m.RankDetailed(&probes[pi], MatchOptions{K: k, Weights: &w, Mode: prefilter.ModePruned})
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
						t.Fatalf("probe %d (k=%d): %s returned %d entries, exact %d",
							pi, k, c.mode, len(c.got), len(exact))
					}
					for j := range exact {
						if c.got[j].Name != exact[j].Name ||
							math.Float64bits(c.got[j].Score) != math.Float64bits(exact[j].Score) {
							t.Fatalf("probe %d (k=%d): rank %d diverges:\n%s %q %v (%x)\nexact  %q %v (%x)",
								pi, k, j, c.mode,
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
	// The spelling is what a /v1/rank trace's prefilter span reports.
	for mode, name := range map[prefilter.Mode]string{prefilter.ModeExact: "exact", prefilter.ModePruned: "pruned", prefilter.ModeLSH: "lsh"} {
		if _, st = m.RankDetailed(&probes[0], MatchOptions{Mode: mode}); st.Mode != mode || st.Mode.String() != name {
			t.Fatalf("per-query %q ran as %q", name, st.Mode)
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

// TestFirstLSHQueriesAtOnce: the LSH index is built by whichever LSH query
// comes first. Eight goroutines whose first LSH query on a fresh matcher
// lands together must each get what the same query gets on a matcher whose
// index was built sequentially, bit for bit, and all of them must be handed
// the one index built (run under -race in CI).
func TestFirstLSHQueriesAtOnce(t *testing.T) {
	authors := makeAuthors(t, 20, 300)
	known, probes := split(authors)
	ref, err := NewMatcher(known, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]Scored, len(probes))
	for i := range probes {
		want[i], _ = ref.RankDetailed(&probes[i], MatchOptions{K: 5, Mode: prefilter.ModeLSH})
	}
	m, err := NewMatcher(known, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	idx := make([]*prefilter.LSH, 8)
	for g := range idx {
		wg.Add(1)
		go func(g, i int) {
			defer wg.Done()
			<-start
			got, st := m.RankDetailed(&probes[i], MatchOptions{K: 5, Mode: prefilter.ModeLSH})
			idx[g] = m.lsh
			if st.Mode != prefilter.ModeLSH || len(got) != len(want[i]) {
				t.Errorf("probe %d: ran as %v, %d entries, want lsh and %d", i, st.Mode, len(got), len(want[i]))
				return
			}
			for j := range got {
				if got[j].Name != want[i][j].Name || math.Float64bits(got[j].Score) != math.Float64bits(want[i][j].Score) {
					t.Errorf("probe %d entry %d = %+v, sequential LSH has %+v", i, j, got[j], want[i][j])
				}
			}
		}(g, g%len(probes))
	}
	close(start)
	wg.Wait()
	for g, l := range idx {
		if l == nil || l != m.lshIndex() {
			t.Fatalf("goroutine %d saw LSH index %p, the matcher holds %p", g, l, m.lshIndex())
		}
	}
}

// TestForwardListsReleased: a built, a loaded and a folded matcher hold each
// posting once, in the arena, and no forward lists — nor does an exact query
// bring them back. The first pruned query, and apart from it the first LSH
// query, re-derive the lists, which must equal bit for bit each subject's
// vector from VectorizeGramsInto, normalised and held as float32. Pruned
// top-k must equal the exact scan's; LSH may miss a name but must score
// every name it returns as the exact scan does and find a known subject
// from its own text. Eight goroutines whose first pruned and LSH queries
// reach a fresh matcher at once must all get the sequential answers (run
// under -race in CI).
func TestForwardListsReleased(t *testing.T) {
	known, probes := randomWorld(rand.New(rand.NewSource(4400)), 40)
	self := len(probes)
	for i := 0; len(probes) < self+3; i += 5 {
		if len(known[i].Text) > 200 {
			probes = append(probes, known[i])
		}
	}
	opts := testOptions()
	opts.Incremental = true
	build := func(known []Subject) *Matcher {
		m, err := NewMatcher(known, opts)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	kinds := []struct {
		name  string
		fresh func() *Matcher
	}{
		{"built", func() *Matcher { return build(known) }},
		{"loaded", func() *Matcher {
			st, err := build(known).State()
			if err != nil {
				t.Fatal(err)
			}
			m, err := NewMatcherFromState(known, st)
			if err != nil {
				t.Fatal(err)
			}
			return m
		}},
		{"folded", func() *Matcher {
			base := slices.Clone(known[:30])
			base[2].Text = known[9].Text
			m, err := build(base).Fold(context.Background(), append(slices.Clone(known[30:]), known[2]))
			if err != nil {
				t.Fatal(err)
			}
			return m
		}},
	}
	rank := func(m *Matcher, p *Subject, k int, mode prefilter.Mode) []Scored {
		got, _ := m.RankDetailed(p, MatchOptions{K: k, Mode: mode})
		return got
	}
	for _, kind := range kinds {
		for _, mode := range []prefilter.Mode{prefilter.ModePruned, prefilter.ModeLSH} {
			label := fmt.Sprintf("%s, first %s query", kind.name, mode)
			m := kind.fresh()
			exact, all := make([][]Scored, len(probes)), make([]map[string]float64, len(probes))
			for i := range probes {
				exact[i] = rank(m, &probes[i], 5, prefilter.ModeExact)
				all[i] = map[string]float64{}
				for _, s := range rank(m, &probes[i], len(known), prefilter.ModeExact) {
					all[i][s.Name] = s.Score
				}
			}
			if m.fwdIdx != nil || m.fwdVal != nil {
				t.Fatalf("%s: the matcher holds forward lists before it", label)
			}
			for i := range probes {
				got := rank(m, &probes[i], 5, mode)
				if mode == prefilter.ModePruned {
					assertSameScored(t, fmt.Sprintf("%s: probe %d", label, i), got, exact[i])
					continue
				}
				for _, s := range got {
					if math.Float64bits(s.Score) != math.Float64bits(all[i][s.Name]) {
						t.Fatalf("%s: probe %d scores %s %v, exact %v", label, i, s.Name, s.Score, all[i][s.Name])
					}
				}
				if i >= self && (len(got) == 0 || got[0] != exact[i][0]) {
					t.Fatalf("%s: own text of %s ranks %v first, exact %v", label, probes[i].Name, got, exact[i][0])
				}
			}
			assertForwardLists(t, label, m)
		}
	}

	modes := [2]prefilter.Mode{prefilter.ModePruned, prefilter.ModeLSH}
	ref := build(known)
	want := make([][2][]Scored, len(probes))
	for i := range probes {
		want[i] = [2][]Scored{rank(ref, &probes[i], 5, modes[0]), rank(ref, &probes[i], 5, modes[1])}
	}
	m := build(known)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g, i int) {
			defer wg.Done()
			<-start
			for j := range 2 { // even goroutines start pruned, odd ones LSH
				k := (g + j) % 2
				got, _ := m.RankDetailed(&probes[i], MatchOptions{K: 5, Mode: modes[k]})
				assertSameScored(t, fmt.Sprintf("goroutine %d, %s probe %d", g, modes[k], i), got, want[i][k])
			}
		}(g, g%len(probes))
	}
	close(start)
	wg.Wait()
	assertForwardLists(t, "concurrent first queries", m)
}

// assertSameScored fails unless got holds want's names in order with the
// same score bits. It may run on any goroutine.
func assertSameScored(t *testing.T, label string, got, want []Scored) {
	if len(got) != len(want) {
		t.Errorf("%s: %d entries, want %d", label, len(got), len(want))
		return
	}
	for j := range got {
		if got[j].Name != want[j].Name || math.Float64bits(got[j].Score) != math.Float64bits(want[j].Score) {
			t.Errorf("%s: entry %d = %+v, want %+v", label, j, got[j], want[j])
		}
	}
}

// assertForwardLists fails unless m holds, for every subject, the ids and
// float32 value bits of VectorizeGramsInto over its document, normalised.
func assertForwardLists(t *testing.T, label string, m *Matcher) {
	t.Helper()
	if len(m.fwdIdx) != len(m.known) || len(m.fwdVal) != len(m.known) {
		t.Fatalf("%s: %d/%d forward lists for %d subjects", label, len(m.fwdIdx), len(m.fwdVal), len(m.known))
	}
	var scratch features.Scratch
	for i := range m.known {
		var vec sparse.Vector
		m.vocab.VectorizeGramsInto(&vec, &scratch, m.docs[i])
		want := vec.Normalize()
		if !slices.Equal(m.fwdIdx[i], want.Idx) || len(m.fwdVal[i]) != len(want.Val) {
			t.Fatalf("%s: subject %d holds ids %v, want %v", label, i, m.fwdIdx[i], want.Idx)
		}
		for k, v := range want.Val {
			if math.Float32bits(m.fwdVal[i][k]) != math.Float32bits(float32(v)) {
				t.Fatalf("%s: subject %d value %d is %x, want %x", label, i, k, math.Float32bits(m.fwdVal[i][k]), math.Float32bits(float32(v)))
			}
		}
	}
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
		// them sharply. The real recall floor is pinned by
		// TestDefaultPointsOnCommunityWorld on a population with distinct
		// community vocabularies; here we only assert the mode is usefully
		// better than chance.
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
	probe := Subject{Name: "ghost"}
	if p, err := activity.Build(stamps(9, 30), activity.Options{}, nil); err == nil {
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
