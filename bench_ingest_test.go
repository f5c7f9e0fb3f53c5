package darklight

// The ingest-path benchmarks time everything upstream of a query in
// process: polishing (§III-C), vocabulary construction (§IV-A), and
// matcher/index construction (§IV-C). They are unrecorded
// micro-benchmarks; the recorded figures are BENCHMARK.json's build_s and
// per-layer ingest metrics (bash bench/run.sh).
//
// The benchmarks share one raw generated world (scale 0.01, fixed seed).
// Polish mutates message bodies in place, so polishing benchmarks deep-clone
// the raw dataset outside the timer.

import (
	"sync"
	"testing"

	"darklight/internal/attribution"
	"darklight/internal/features"
	"darklight/internal/forum"
)

var (
	ingestOnce sync.Once
	ingestRaw  *Dataset // raw (un-polished) Reddit at scale 0.01
	ingestErr  error
)

func ingestRawReddit(b *testing.B) *Dataset {
	b.Helper()
	ingestOnce.Do(func() {
		var world *World
		world, ingestErr = GenerateWorld(WorldConfig{Seed: 7, Scale: 0.01})
		if ingestErr == nil {
			ingestRaw = world.Reddit
		}
	})
	if ingestErr != nil {
		b.Fatal(ingestErr)
	}
	return ingestRaw
}

// cloneDataset deep-copies a dataset down to the message level so polishing
// one copy cannot leak into the next iteration.
func cloneDataset(d *Dataset) *Dataset {
	out := forum.NewDataset(d.Name, d.Platform)
	out.Aliases = make([]Alias, len(d.Aliases))
	for i := range d.Aliases {
		a := d.Aliases[i]
		a.Messages = append([]Message(nil), a.Messages...)
		out.Aliases[i] = a
	}
	return out
}

// ingestSubjects builds the polished, refined subject set the vocabulary and
// index benchmarks operate on (construction cost excluded from their timers).
func ingestSubjects(b *testing.B) []attribution.Subject {
	b.Helper()
	pipe := NewPipeline()
	d := cloneDataset(ingestRawReddit(b))
	pipe.Polish(d)
	subs, err := pipe.Subjects(pipe.Refine(d))
	if err != nil {
		b.Fatal(err)
	}
	if len(subs) == 0 {
		b.Fatal("ingest benchmarks: no subjects survived refinement")
	}
	return subs
}

// BenchmarkPolish measures the full 12-step §III-C cleaning pipeline over
// the raw corpus.
func BenchmarkPolish(b *testing.B) {
	raw := ingestRawReddit(b)
	pipe := NewPipeline()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d := cloneDataset(raw)
		b.StartTimer()
		pipe.Polish(d)
	}
}

// BenchmarkVocabBuild measures corpus-statistics accumulation and top-N
// vocabulary selection (§IV-A) over pre-extracted documents, isolating the
// builder from extraction cost.
func BenchmarkVocabBuild(b *testing.B) {
	subs := ingestSubjects(b)
	cfg := features.ReductionConfig()
	docs := make([]*features.PackedDoc, len(subs))
	for i := range subs {
		docs[i] = features.Extract(subs[i].Text, cfg)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vb := features.NewVocabBuilder(cfg)
		for _, d := range docs {
			vb.Add(d)
		}
		if _, err := vb.Build(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIndexBuild measures NewMatcher construction — per-subject
// extraction, vocabulary build, and inverted-index assembly — over the
// refined subject set.
func BenchmarkIndexBuild(b *testing.B) {
	subs := ingestSubjects(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := attribution.NewMatcher(subs, attribution.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIngestEndToEnd measures the whole ingest path: polish → refine →
// subject building → matcher construction. This is the headline number for
// corpus onboarding; the §IV-J batch procedure exists because this cost
// dominates attribution at scale.
func BenchmarkIngestEndToEnd(b *testing.B) {
	raw := ingestRawReddit(b)
	pipe := NewPipeline()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d := cloneDataset(raw)
		b.StartTimer()
		pipe.Polish(d)
		subs, err := pipe.Subjects(pipe.Refine(d))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := attribution.NewMatcher(subs, attribution.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}
