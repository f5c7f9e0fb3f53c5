package attribution

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"darklight/internal/activity"
	"darklight/internal/corpus"
	"darklight/internal/features"
	"darklight/internal/forum"
	"darklight/internal/timeutil"
)

// synthAuthor builds two disjoint text halves with a persistent per-author
// vocabulary bias, plus weekday timestamps around a per-author peak hour.
type synthAuthor struct {
	name  string
	known Subject
	probe Subject
}

var sharedVocab = strings.Fields(`
	the a of to and in that it is was for on with as be at by this have from
	or one had not but what all were when we there can an your which their
	time people way water word day part number sound most thing man find
	place year back give line even because turn here show also around form
	small set put end does another well large must big such`)

func makeAuthors(t testing.TB, n, wordsPerHalf int) []synthAuthor {
	t.Helper()
	authors := make([]synthAuthor, n)
	for i := range authors {
		name := fmt.Sprintf("author%02d", i)
		r := rand.New(rand.NewSource(int64(1000 + i)))
		// Persistent style: a preferred subset of the vocabulary plus a
		// couple of private words.
		pref := make([]string, 0, 24)
		for _, j := range r.Perm(len(sharedVocab))[:20] {
			pref = append(pref, sharedVocab[j])
		}
		pref = append(pref, fmt.Sprintf("zq%dx", i), fmt.Sprintf("vk%dy", i))

		gen := func(seed int64, words int) string {
			rr := rand.New(rand.NewSource(seed))
			var b strings.Builder
			for w := 0; w < words; w++ {
				if rr.Float64() < 0.55 {
					b.WriteString(pref[rr.Intn(len(pref))])
				} else {
					b.WriteString(sharedVocab[rr.Intn(len(sharedVocab))])
				}
				if rr.Float64() < 0.12 {
					b.WriteString(",")
				}
				b.WriteByte(' ')
				if w%11 == 10 {
					b.WriteString(". ")
				}
			}
			return b.String()
		}
		peak := 6 + (i*2)%16
		authors[i] = synthAuthor{
			name:  name,
			known: Subject{Name: name, Text: gen(int64(i)*7+1, wordsPerHalf)},
			probe: Subject{Name: name, Text: gen(int64(i)*7+2, wordsPerHalf)},
		}
		// Both halves post at the same peak hour.
		if p, err := activity.Build(stamps(peak, 40), activity.Options{ExcludeWeekends: true}, nil); err == nil {
			authors[i].known.Activity = p
			authors[i].probe.Activity = p
		}
	}
	return authors
}

func stamps(hour, n int) []time.Time {
	out := make([]time.Time, 0, n)
	day := time.Date(2017, 4, 3, 0, 0, 0, 0, time.UTC)
	for len(out) < n {
		if !timeutil.IsWeekend(day) {
			out = append(out, time.Date(day.Year(), day.Month(), day.Day(), hour, 30, 0, 0, time.UTC))
		}
		day = day.AddDate(0, 0, 1)
	}
	return out
}

func testOptions() Options {
	o := DefaultOptions()
	o.Workers = 2
	return o
}

func split(authors []synthAuthor) (known, probes []Subject) {
	for _, a := range authors {
		known = append(known, a.known)
		probes = append(probes, a.probe)
	}
	return known, probes
}

func TestMatcherSelfAttribution(t *testing.T) {
	authors := makeAuthors(t, 12, 400)
	known, probes := split(authors)
	m, err := NewMatcher(known, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if m.NumKnown() != 12 {
		t.Fatalf("NumKnown = %d", m.NumKnown())
	}
	hits := 0
	for i := range probes {
		res := m.Match(&probes[i])
		if res.Unknown != probes[i].Name {
			t.Errorf("result mislabelled: %q", res.Unknown)
		}
		if len(res.Candidates) != 10 {
			t.Errorf("want k=10 candidates, got %d", len(res.Candidates))
		}
		if res.Best.Name == probes[i].Name {
			hits++
		}
	}
	if hits < 10 {
		t.Errorf("self-attribution hits = %d of 12", hits)
	}
}

func TestRankWithWeights(t *testing.T) {
	authors := makeAuthors(t, 8, 300)
	known, probes := split(authors)
	m, err := NewMatcher(known, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	q := m.Prepare(&probes[0])
	textOnly, _ := q.Rank(MatchOptions{K: 3, Weights: &Weights{Freq: 0.3, Activity: 0}})
	withAct, _ := q.Rank(MatchOptions{K: 3, Weights: &Weights{Freq: 0.3, Activity: 0.7}})
	if len(textOnly) != 3 || len(withAct) != 3 {
		t.Fatal("rank sizes wrong")
	}
	// Scores must differ when the activity block is toggled (profiles are
	// author-specific here).
	if textOnly[0].Score == withAct[0].Score {
		t.Error("activity weighting has no effect on scores")
	}
	for _, s := range append(textOnly, withAct...) {
		if s.Score < -1e-9 || s.Score > 1+1e-9 {
			t.Errorf("score %v outside [0,1]", s.Score)
		}
	}
}

func TestRescoreOrdersCandidates(t *testing.T) {
	authors := makeAuthors(t, 10, 300)
	known, probes := split(authors)
	m, err := NewMatcher(known, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	cands := m.Rank(&probes[2], 5)
	rescored := m.Rescore(&probes[2], cands)
	if len(rescored) != 5 {
		t.Fatalf("rescored %d", len(rescored))
	}
	for i := 1; i < len(rescored); i++ {
		if rescored[i].Score > rescored[i-1].Score {
			t.Error("rescored candidates must be sorted descending")
		}
	}
}

func TestThresholdAcceptance(t *testing.T) {
	authors := makeAuthors(t, 6, 300)
	known, probes := split(authors)

	opts := testOptions()
	opts.Threshold = 2.0 // unattainable for cosine
	m, err := NewMatcher(known, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res := m.Match(&probes[0]); res.Accepted {
		t.Error("nothing can clear threshold 2.0")
	}

	opts.Threshold = -1
	m2, _ := NewMatcher(known, opts)
	if res := m2.Match(&probes[0]); !res.Accepted {
		t.Error("threshold -1 must accept everything")
	}
}

func TestMatchAllAlignsAndCancels(t *testing.T) {
	authors := makeAuthors(t, 8, 250)
	known, probes := split(authors)
	m, err := NewMatcher(known, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	results, err := m.MatchAll(context.Background(), probes)
	if err != nil {
		t.Fatal(err)
	}
	for i := range probes {
		if results[i].Unknown != probes[i].Name {
			t.Fatal("results must align positionally with input")
		}
	}
	// Cancelled context: must return promptly with ctx error.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = m.MatchAll(ctx, probes)
	if err == nil {
		t.Error("cancelled MatchAll must report the context error")
	}
}

func TestSingleStageOption(t *testing.T) {
	authors := makeAuthors(t, 6, 250)
	known, probes := split(authors)
	opts := testOptions()
	opts.TwoStage = false
	m, err := NewMatcher(known, opts)
	if err != nil {
		t.Fatal(err)
	}
	res := m.Match(&probes[0])
	if len(res.Rescored) != len(res.Candidates) {
		t.Fatal("single-stage must reuse candidates")
	}
	for i := range res.Candidates {
		if res.Rescored[i] != res.Candidates[i] {
			t.Error("single-stage scores must equal stage-1 scores")
		}
	}
}

func TestEmptyKnownSet(t *testing.T) {
	m, err := NewMatcher(nil, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	probe := Subject{Name: "x", Text: "some text here"}
	res := m.Match(&probe)
	if res.Accepted || len(res.Candidates) != 0 {
		t.Error("empty known set must match nothing")
	}
}

func TestInvalidConfigRejected(t *testing.T) {
	opts := testOptions()
	opts.Reduction.WordMin = 0
	if _, err := NewMatcher(nil, opts); err == nil {
		t.Error("invalid reduction config must be rejected")
	}
	opts = testOptions()
	opts.Final.CharMin = 9
	opts.Final.CharMax = 1
	if _, err := NewMatcher(nil, opts); err == nil {
		t.Error("invalid final config must be rejected")
	}
}

// TestFinalConfigMustExtractAsReduction: both stages read one extraction,
// so a Final config that extracts differently from the Reduction config —
// in any one of its extraction fields — is refused by a build, with stage 2
// on or off, and by a load from state. A Final whose budgets alone differ is
// accepted by all three.
func TestFinalConfigMustExtractAsReduction(t *testing.T) {
	known, _ := split(makeAuthors(t, 6, 200))
	opts := testOptions()
	opts.Incremental = true
	m, err := NewMatcher(known, opts)
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.State()
	if err != nil {
		t.Fatal(err)
	}
	fields := map[string]func(*features.Config){
		"Lemmatize":   func(c *features.Config) { c.Lemmatize = !c.Lemmatize },
		"IncludeFreq": func(c *features.Config) { c.IncludeFreq = !c.IncludeFreq },
		"WordMin":     func(c *features.Config) { c.WordMin++ },
		"WordMax":     func(c *features.Config) { c.WordMax-- },
		"CharMin":     func(c *features.Config) { c.CharMin++ },
		"CharMax":     func(c *features.Config) { c.CharMax-- },
		"budgets": func(c *features.Config) {
			c.MaxWordGrams, c.MaxCharGrams = c.MaxWordGrams/7, c.MaxCharGrams/3
		},
	}
	for name, change := range fields {
		refused := name != "budgets"
		check := func(how string, err error) {
			t.Helper()
			switch {
			case refused && (err == nil || !strings.Contains(err.Error(), "only MaxWordGrams and MaxCharGrams may differ")):
				t.Errorf("Final.%s changed, %s: error %v, want the one-extraction refusal", name, how, err)
			case !refused && err != nil:
				t.Errorf("Final.%s changed, %s: %v", name, how, err)
			}
		}
		for _, twoStage := range []bool{true, false} {
			o := opts
			o.TwoStage = twoStage
			change(&o.Final)
			_, err := NewMatcher(known, o)
			check(fmt.Sprintf("NewMatcher with TwoStage %v", twoStage), err)
		}
		s := st
		change(&s.Opts.Final)
		_, err := NewMatcherFromState(known, s)
		check("NewMatcherFromState", err)
	}
}

func TestBatchMatcherAgreesWithDirect(t *testing.T) {
	authors := makeAuthors(t, 30, 250)
	known, probes := split(authors)
	probes = probes[:8]

	opts := testOptions()
	direct, err := NewMatcher(known, opts)
	if err != nil {
		t.Fatal(err)
	}
	bm, err := NewBatchMatcher(known, opts, 12)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	batched, err := bm.MatchAll(ctx, probes)
	if err != nil {
		t.Fatal(err)
	}
	agree := 0
	for i := range probes {
		d := direct.Match(&probes[i])
		if batched[i].Best.Name == d.Best.Name {
			agree++
		}
	}
	if agree < 6 {
		t.Errorf("batched agrees with direct on %d of 8", agree)
	}
}

func TestBatchMatcherRejectsTinyB(t *testing.T) {
	if _, err := NewBatchMatcher(nil, testOptions(), 5); err == nil {
		t.Error("B < k must be rejected")
	}
}

func TestBuildSubjects(t *testing.T) {
	d := forum.NewDataset("T", forum.PlatformReddit)
	a := forum.Alias{Name: "u"}
	day := time.Date(2017, 6, 5, 10, 0, 0, 0, time.UTC)
	for i := 0; i < 40; i++ {
		for timeutil.IsWeekend(day) {
			day = day.AddDate(0, 0, 1)
		}
		a.Messages = append(a.Messages, forum.Message{
			ID: fmt.Sprint(i), Author: "u",
			Body:     strings.Repeat("word ", 60),
			PostedAt: day,
		})
		day = day.AddDate(0, 0, 1)
	}
	d.Add(a)
	subs, err := BuildSubjects(d, SubjectOptions{WordBudget: 100, WithActivity: true, Activity: activity.Options{ExcludeWeekends: true}})
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) != 1 {
		t.Fatal("subject missing")
	}
	if got := len(strings.Fields(subs[0].Text)); got != 100 {
		t.Errorf("budgeted doc = %d words", got)
	}
	if subs[0].Activity == nil {
		t.Error("activity profile missing")
	}
	// Word budget must match corpus.Document.
	if subs[0].Text != corpus.Document(&d.Aliases[0], 100, nil) {
		t.Error("subject text must be the corpus document")
	}
	// Insufficient timestamps → nil profile, no error.
	d2 := forum.NewDataset("T2", forum.PlatformReddit)
	d2.Add(forum.Alias{Name: "few", Messages: a.Messages[:5]})
	subs2, err := BuildSubjects(d2, SubjectOptions{WithActivity: true})
	if err != nil {
		t.Fatal(err)
	}
	if subs2[0].Activity != nil {
		t.Error("five timestamps cannot build a profile")
	}
}

func TestVectorizeConsistentWithSimilarity(t *testing.T) {
	// similarity(u, v) with weights must equal 1 for identical subjects.
	// Note the vocabulary needs at least two documents: with a single doc
	// every gram has df = N and IDF = ln((1+N)/(1+df)) = 0, zeroing the
	// whole gram block.
	s := Subject{Name: "x", Text: "alpha beta gamma delta epsilon zeta eta theta!"}
	cfg := features.ReductionConfig()
	vb := features.NewVocabBuilder(cfg)
	vb.AddSorted(features.Extract(s.Text, cfg))
	vb.AddSorted(features.Extract("totally different filler words go here instead.", cfg))
	vocab, err := vb.Build()
	if err != nil {
		t.Fatal(err)
	}
	b := buildBlocks(&s, vocab, cfg)
	w := Weights{Freq: 0.3, Activity: 0.7}
	if got := similarity(&b, &b, w); got < 0.999 || got > 1.001 {
		t.Errorf("self similarity = %v", got)
	}
}
