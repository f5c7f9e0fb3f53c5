package attribution

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"darklight/internal/features"
	"darklight/internal/prefilter"
)

// assertMatchersEquivalent drives both matchers through every query path —
// stage 1 in all three pre-filter modes, stage 2, and the full two-stage
// MatchAll — and requires bit-identical output.
func assertMatchersEquivalent(t *testing.T, got, want *Matcher, probes []Subject) {
	t.Helper()
	w := Weights{Freq: 0.2, Activity: 0.7}
	for pi := range probes {
		p := &probes[pi]
		for _, mode := range []prefilter.Mode{prefilter.ModeExact, prefilter.ModePruned, prefilter.ModeLSH} {
			o := MatchOptions{K: 5, Weights: &w, Mode: mode}
			gr, _ := got.RankDetailed(p, o)
			wr, _ := want.RankDetailed(p, o)
			if !reflect.DeepEqual(gr, wr) {
				t.Fatalf("probe %d mode %v: rank diverges\ngot  %v\nwant %v", pi, mode, gr, wr)
			}
		}
		cands := want.Rank(p, 5)
		if gre, wre := got.Rescore(p, cands), want.Rescore(p, cands); !reflect.DeepEqual(gre, wre) {
			t.Fatalf("probe %d: rescore diverges\ngot  %v\nwant %v", pi, gre, wre)
		}
	}
	gall, gerr := got.MatchAll(context.Background(), probes)
	wall, werr := want.MatchAll(context.Background(), probes)
	if gerr != nil || werr != nil {
		t.Fatalf("MatchAll errors: %v / %v", gerr, werr)
	}
	if !reflect.DeepEqual(gall, wall) {
		t.Fatal("MatchAll output diverges")
	}
}

// TestIncrementalBuildBitIdentical: Options.Incremental must not change a
// single output bit — it only retains extra state.
func TestIncrementalBuildBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7100))
	known, probes := randomWorld(rng, 40)
	opts := DefaultOptions()
	opts.Workers = 3
	plain, err := NewMatcher(known, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Incremental = true
	inc, err := NewMatcher(known, opts)
	if err != nil {
		t.Fatal(err)
	}
	assertMatchersEquivalent(t, inc, plain, probes)
}

// TestStateRoundTrip: save → load must rebuild a matcher whose output is
// bit-identical — LSH operating points are rebuilt on first use, not
// carried — and the loaded matcher must itself support State and Fold.
func TestStateRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7200))
	known, probes := randomWorld(rng, 45)
	opts := DefaultOptions()
	opts.Workers = 2
	opts.Incremental = true
	m, err := NewMatcher(known, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Touch the LSH path: the saved matcher has an operating point built,
	// the loaded one must answer the same without it.
	m.RankDetailed(&probes[0], MatchOptions{K: 3, Mode: prefilter.ModeLSH})

	st, err := m.State()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := NewMatcherFromState(m.Subjects(), st)
	if err != nil {
		t.Fatal(err)
	}
	assertMatchersEquivalent(t, loaded, m, probes)

	// The loaded matcher must be able to snapshot again — to the same state,
	// since everything it holds beyond the state is derived from it — and
	// fold deltas.
	again, err := loaded.State()
	if err != nil {
		t.Fatalf("State on loaded matcher: %v", err)
	}
	if !reflect.DeepEqual(again, st) {
		t.Error("State of the loaded matcher differs from the state it was loaded from")
	}
	if _, err := loaded.Fold(context.Background(), known[:1]); err != nil {
		t.Fatalf("Fold on loaded matcher: %v", err)
	}
}

// TestStateRejectsMismatchedSubjects: a subject list that does not match
// the snapshot's geometry must error, not build a silently wrong index.
func TestStateRejectsMismatchedSubjects(t *testing.T) {
	rng := rand.New(rand.NewSource(7250))
	known, _ := randomWorld(rng, 10)
	opts := DefaultOptions()
	opts.Incremental = true
	m, err := NewMatcher(known, opts)
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.State()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewMatcherFromState(known[:len(known)-1], st); err == nil {
		t.Error("truncated subject list accepted")
	}
	bad := st
	bad.Docs = append([]*features.SortedDoc{nil}, st.Docs[1:]...)
	if _, err := NewMatcherFromState(known, bad); err == nil {
		t.Error("missing document accepted")
	}
}

// TestNonIncrementalRefusesStateAndFold pins the guard error.
func TestNonIncrementalRefusesStateAndFold(t *testing.T) {
	rng := rand.New(rand.NewSource(7300))
	known, _ := randomWorld(rng, 8)
	m, err := NewMatcher(known, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.State(); !errors.Is(err, ErrNotIncremental) {
		t.Errorf("State error = %v, want ErrNotIncremental", err)
	}
	if _, err := m.Fold(context.Background(), known[:1]); !errors.Is(err, ErrNotIncremental) {
		t.Errorf("Fold error = %v, want ErrNotIncremental", err)
	}
}

// TestFoldMatchesRebuild is the delta-apply equivalence property: across
// random worlds, folding updated and brand-new subjects into a live
// matcher must produce the same outputs as a from-scratch build over the
// updated subject list — the incremental df/TF-IDF maintenance cannot
// drift by even a bit. The batch repeats one name, which applies twice in
// batch order, and is folded at 1 and 3 workers: the extractions run in
// parallel, and both folds must leave the same state and rank bits.
func TestFoldMatchesRebuild(t *testing.T) {
	trials := 6
	if testing.Short() {
		trials = 2
	}
	for trial := 0; trial < trials; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("world%d", trial), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(7400 + trial)))
			known, probes := randomWorld(rng, 20+rng.Intn(25))

			// Mutate a few existing subjects (as a new thread folding into
			// their alias would), mint a few new ones, and fold a second
			// thread into the first of them.
			var changed []Subject
			for _, i := range rng.Perm(len(known))[:2+rng.Intn(3)] {
				s := known[i]
				s.Text += " fresh posts folded into the corpus after the snapshot"
				changed = append(changed, s)
			}
			for j := 0; j < 1+rng.Intn(3); j++ {
				s := Subject{Name: fmt.Sprintf("newcomer%02d", j)}
				if rng.Intn(4) > 0 {
					s.Text = "brand new vendor account shipping quality product with tracking " + fmt.Sprintf("nw%dq", j)
				}
				changed = append(changed, s)
			}
			again := changed[0]
			again.Text += " and a later thread from the same batch"
			changed = append(changed, again)

			// Reference: full rebuild over the updated, name-sorted list.
			byName := make(map[string]int, len(known))
			updated := append([]Subject(nil), known...)
			for i := range updated {
				byName[updated[i].Name] = i
			}
			for _, c := range changed {
				if i, ok := byName[c.Name]; ok {
					updated[i] = c
				} else {
					byName[c.Name] = len(updated)
					updated = append(updated, c)
				}
			}
			sort.SliceStable(updated, func(a, b int) bool { return updated[a].Name < updated[b].Name })

			var folds []*Matcher
			for _, workers := range []int{1, 3} {
				opts := DefaultOptions()
				opts.Workers = workers
				opts.Incremental = true
				base, err := NewMatcher(known, opts)
				if err != nil {
					t.Fatal(err)
				}
				folded, err := base.Fold(context.Background(), changed)
				if err != nil {
					t.Fatal(err)
				}
				rebuilt, err := NewMatcher(updated, opts)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(folded.Subjects(), rebuilt.Subjects()) {
					t.Fatalf("%d workers: folded subject list diverges from rebuild", workers)
				}
				assertMatchersEquivalent(t, folded, rebuilt, probes)

				// And the fold must not have disturbed the matcher it came from.
				prev, err := NewMatcher(known, opts)
				if err != nil {
					t.Fatal(err)
				}
				assertMatchersEquivalent(t, base, prev, probes[:2])
				folds = append(folds, folded)
			}

			one, three := folds[0], folds[1]
			st1, err1 := one.State()
			st3, err3 := three.State()
			if err1 != nil || err3 != nil {
				t.Fatalf("State: %v / %v", err1, err3)
			}
			if !reflect.DeepEqual(st1.Stats, st3.Stats) || !reflect.DeepEqual(st1.Docs, st3.Docs) {
				t.Fatal("the folds at 1 and 3 workers leave different index states")
			}
			for pi := range probes {
				r1, r3 := one.Rank(&probes[pi], len(updated)), three.Rank(&probes[pi], len(updated))
				if len(r1) != len(r3) {
					t.Fatalf("probe %d: %d ranked at 1 worker, %d at 3", pi, len(r1), len(r3))
				}
				for j := range r1 {
					if r1[j].Name != r3[j].Name || math.Float64bits(r1[j].Score) != math.Float64bits(r3[j].Score) {
						t.Fatalf("probe %d rank %d: %q %x at 1 worker, %q %x at 3", pi, j,
							r1[j].Name, math.Float64bits(r1[j].Score), r3[j].Name, math.Float64bits(r3[j].Score))
					}
				}
			}
		})
	}
}
