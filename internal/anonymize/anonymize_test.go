package anonymize

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"darklight/internal/activity"
	"darklight/internal/attribution"
	"darklight/internal/corpus"
	"darklight/internal/forum"
	"darklight/internal/normalize"
	"darklight/internal/synth"
)

func TestTextTransforms(t *testing.T) {
	a := New(DefaultOptions())
	tests := []struct{ name, in, want string }{
		{
			name: "misspellings fixed",
			in:   "i definately recieve alot of packages",
			want: "I definitely receive a lot of packages",
		},
		{
			name: "slang expanded",
			in:   "imo this vendor is legit tbh",
			want: "In my opinion this vendor is legit to be honest",
		},
		{
			name: "shouting lowercased",
			in:   "this is VERY IMPORTANT stuff",
			want: "This is very important stuff",
		},
		{
			name: "punctuation runs collapsed",
			in:   "wait... what?? no!!",
			want: "Wait. What? No!",
		},
		{
			name: "emphasis stripped",
			in:   "this is *really* ~important~",
			want: "This is really important",
		},
		{
			name: "opener dropped",
			in:   "honestly the quality was quite good this time",
			want: "The quality was quite good this time",
		},
		{
			name: "emoji stripped",
			in:   "great stuff 🔥 thanks friend",
			want: "Great stuff thanks friend",
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := a.Text(tt.in); got != tt.want {
				t.Errorf("Text(%q) = %q, want %q", tt.in, got, tt.want)
			}
		})
	}
}

func TestTextPreservesContentWords(t *testing.T) {
	a := New(DefaultOptions())
	in := "the shipping took nine days and the crystals were pure"
	out := strings.ToLower(a.Text(in))
	for _, w := range []string{"shipping", "nine", "days", "crystals", "pure"} {
		if !strings.Contains(out, w) {
			t.Errorf("content word %q lost: %q", w, out)
		}
	}
}

// postTimes lists the alias's post times in message order.
func postTimes(a forum.Alias) []time.Time {
	ts := make([]time.Time, len(a.Messages))
	for i := range a.Messages {
		ts[i] = a.Messages[i].PostedAt
	}
	return ts
}

// entropy is the Shannon entropy of p's bins in bits: log2(24) ≈ 4.58 for
// uniform posting, 0 for one fixed hour.
func entropy(p *activity.Profile) float64 {
	e := 0.0
	for _, b := range p.Bins {
		if b > 0 {
			e -= b * math.Log2(b)
		}
	}
	return e
}

func TestReschedulingDestroysProfile(t *testing.T) {
	// Build an alias with a sharp 21:00 habit.
	in := forum.Alias{Name: "night_owl"}
	day := time.Date(2017, 3, 6, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 60; i++ {
		in.Messages = append(in.Messages, forum.Message{
			ID: "m", Author: "night_owl", Body: "some words here",
			PostedAt: day.AddDate(0, 0, i).Add(21 * time.Hour),
		})
	}
	before, err := activity.Build(postTimes(in), activity.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := New(DefaultOptions()).Alias(in)
	after, err := activity.Build(postTimes(out), activity.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if e := entropy(before); e > 0.1 {
		t.Fatalf("setup: original profile should be sharp, entropy %v", e)
	}
	if e := entropy(after); e < 2 {
		t.Errorf("rescheduled profile entropy = %v, want near-uniform", e)
	}
	if activity.Cosine(before, after) > 0.6 {
		t.Errorf("profiles still similar after rescheduling: %v", activity.Cosine(before, after))
	}
}

func TestDatasetCopyIsDeep(t *testing.T) {
	d := forum.NewDataset("T", forum.PlatformReddit)
	d.Add(forum.Alias{Name: "x", Messages: []forum.Message{{ID: "1", Author: "x", Body: "imo great", PostedAt: time.Now()}}})
	out := New(DefaultOptions()).Dataset(d)
	if d.Aliases[0].Messages[0].Body != "imo great" {
		t.Error("original dataset mutated")
	}
	if out.Aliases[0].Messages[0].Body == "imo great" {
		t.Error("copy not anonymised")
	}
}

// TestCountermeasureDegradesAttack is the §VI validation: anonymising the
// unknown side of an alter-ego experiment must cut the pipeline's linking
// accuracy substantially, without making the text unrecognisable.
func TestCountermeasureDegradesAttack(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end countermeasure test is slow")
	}
	cfg := synth.DefaultConfig().Scaled(0.02)
	cfg.Seed = 17
	world, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	world.AlignUTC()
	normalize.NewPipeline().Run(world.Reddit)
	actOpts := activity.PaperOptions(2017)
	refined := corpus.Refine(world.Reddit, corpus.RefineOptions{Activity: actOpts})
	main, ae := corpus.SplitAlterEgos(refined, corpus.AlterEgoOptions{Activity: actOpts, Seed: 17})
	if ae.Len() < 20 {
		t.Skipf("only %d alter-egos at this scale", ae.Len())
	}
	if ae.Len() > 60 {
		ae.Aliases = ae.Aliases[:60]
	}

	subjOpts := attribution.SubjectOptions{Activity: actOpts, WithActivity: true}
	mainSubs, err := attribution.BuildSubjects(main, subjOpts)
	if err != nil {
		t.Fatal(err)
	}
	matcher, err := attribution.NewMatcher(mainSubs, attribution.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	accuracy := func(d *forum.Dataset) float64 {
		probes, err := attribution.BuildSubjects(d, subjOpts)
		if err != nil {
			t.Fatal(err)
		}
		results, err := matcher.MatchAll(context.Background(), probes)
		if err != nil {
			t.Fatal(err)
		}
		hits := 0
		for _, r := range results {
			if r.Best.Name == r.Unknown {
				hits++
			}
		}
		return float64(hits) / float64(len(probes))
	}

	baseline := accuracy(ae)
	protected := accuracy(New(DefaultOptions()).Dataset(ae))
	t.Logf("attack accuracy: %.1f%% raw → %.1f%% anonymised", 100*baseline, 100*protected)
	if baseline < 0.5 {
		t.Fatalf("setup: attack should work on raw alter-egos, got %.2f", baseline)
	}
	if protected > baseline-0.2 {
		t.Errorf("anonymisation cut accuracy only %.2f → %.2f; want a substantial drop", baseline, protected)
	}
}
