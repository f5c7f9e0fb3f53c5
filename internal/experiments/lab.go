// Package experiments contains one harness per table and figure of the
// paper's evaluation (§III–§V). Each harness returns a printable report
// struct whose rows mirror what the paper prints; cmd/experiments runs
// them all and regenerates EXPERIMENTS.md.
//
// All harnesses share a Lab: a generated world (the data substitute for
// the paper's scraped corpora), polished and refined per §III-C/§IV-D,
// with alter-ego splits and a cached matcher for the big Reddit dataset.
package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"darklight/internal/attribution"
	"darklight/internal/corpus"
	"darklight/internal/eval"
	"darklight/internal/forum"
	"darklight/internal/normalize"
	"darklight/internal/synth"
)

// LabConfig sizes the experiment suite. The paper ran at full scrape scale
// (16,567 Reddit users) on a 4-core laptop; the defaults here are sized
// for a single-CPU CI box. Raise Scale toward 1.0 to approach paper scale.
type LabConfig struct {
	// Seed drives the generator and all sampling.
	Seed uint64
	// Scale multiplies the paper's population counts (default 0.12).
	Scale float64
	// MaxUnknowns caps the alter-ego query sets of the PR experiments
	// (the paper used 1,000; default 250).
	MaxUnknowns int
	// Table3Known / Table3Unknowns cap the word-budget sweep, which
	// builds one index per (budget) pair (default 600 / 120).
	Table3Known    int
	Table3Unknowns int
	// BaselineKnown / BaselineUnknowns cap the Fig. 3 baseline comparison
	// (the Koppel baseline is ~100× one cosine pass; default 600 / 100).
	BaselineKnown    int
	BaselineUnknowns int
	// BatchUnknowns caps the §IV-J batch-procedure validation (default 50).
	BatchUnknowns int
	// Workers bounds parallelism (0 = GOMAXPROCS).
	Workers int
}

// DefaultLabConfig returns the single-CPU defaults.
func DefaultLabConfig() LabConfig {
	return LabConfig{
		Seed:             1,
		Scale:            0.12,
		MaxUnknowns:      250,
		Table3Known:      600,
		Table3Unknowns:   120,
		BaselineKnown:    600,
		BaselineUnknowns: 100,
		BatchUnknowns:    50,
	}
}

func (c LabConfig) withDefaults() LabConfig {
	d := DefaultLabConfig()
	if c.Seed == 0 {
		c.Seed = d.Seed
	}
	if c.Scale == 0 {
		c.Scale = d.Scale
	}
	if c.MaxUnknowns == 0 {
		c.MaxUnknowns = d.MaxUnknowns
	}
	if c.Table3Known == 0 {
		c.Table3Known = d.Table3Known
	}
	if c.Table3Unknowns == 0 {
		c.Table3Unknowns = d.Table3Unknowns
	}
	if c.BaselineKnown == 0 {
		c.BaselineKnown = d.BaselineKnown
	}
	if c.BaselineUnknowns == 0 {
		c.BaselineUnknowns = d.BaselineUnknowns
	}
	if c.BatchUnknowns == 0 {
		c.BatchUnknowns = d.BatchUnknowns
	}
	return c
}

// Lab is the shared state of the experiment suite.
type Lab struct {
	Cfg LabConfig

	// World is the generated universe with ground truth.
	World *synth.World
	// Raw datasets (post-polish, pre-refinement) per forum.
	RawReddit, RawTMG, RawDM *forum.Dataset
	// Refined datasets (≥1,500 words, ≥30 usable timestamps) and their
	// alter-ego splits (Table IV's six datasets).
	Reddit, AEReddit *forum.Dataset
	TMG, AETMG       *forum.Dataset
	DM, AEDM         *forum.Dataset
	// PolishReports per forum, for Table-I-style diagnostics.
	PolishReports map[string]*normalize.Report

	// subjOpts is the paper's subject construction, built once so every
	// harness shares one holiday calendar.
	subjOpts attribution.SubjectOptions

	redditMatcher *attribution.Matcher
	darkMatcher   *attribution.Matcher
	curves        *aeCurveSet

	// ctx is the context the lab was built under; when it carries an
	// obs.Tracer, every harness stage (polish, matcher builds, MatchAll)
	// emits spans into it.
	ctx context.Context
}

// NewLab generates and prepares the shared datasets. This is the expensive
// setup step (~1–2 minutes at the default scale on one CPU).
func NewLab(cfg LabConfig) (*Lab, error) {
	return NewLabContext(context.Background(), cfg)
}

// NewLabContext is NewLab under a context that may carry an obs.Tracer.
// The lab retains the context and threads it through every pipeline stage
// it runs, now and later (lazy matcher builds, harness MatchAll calls).
// All outputs are bit-identical with tracing on or off.
func NewLabContext(ctx context.Context, cfg LabConfig) (*Lab, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	cfg = cfg.withDefaults()
	l := &Lab{Cfg: cfg, PolishReports: make(map[string]*normalize.Report), ctx: ctx}

	gen := synth.DefaultConfig().Scaled(cfg.Scale)
	gen.Seed = cfg.Seed
	// Overlap counts already shrink gently in Scaled; the lab additionally
	// floors them at 10 so the §V experiments keep a visible number of
	// plantable pairs even at tiny scales.
	gen.TMGDMOverlap = atLeast(gen.TMGDMOverlap, 10)
	gen.RedditTMGOveral = atLeast(gen.RedditTMGOveral, 10)
	gen.RedditDMOverlap = atLeast(gen.RedditDMOverlap, 10)

	world, err := synth.Generate(gen)
	if err != nil {
		return nil, fmt.Errorf("experiments: generate world: %w", err)
	}
	l.World = world
	// §IV-B: forums report local wall-clock time; align everything to UTC
	// before any profile is built.
	world.AlignUTC()

	pipe := normalize.NewPipeline()
	l.PolishReports["reddit"] = pipe.RunContext(ctx, world.Reddit)
	l.PolishReports["tmg"] = pipe.RunContext(ctx, world.TMG)
	l.PolishReports["dm"] = pipe.RunContext(ctx, world.DM)
	l.RawReddit, l.RawTMG, l.RawDM = world.Reddit, world.TMG, world.DM

	l.subjOpts = attribution.DefaultSubjectOptions()

	refine := corpus.RefineOptions{Activity: l.subjOpts.Activity}
	aeOpts := corpus.AlterEgoOptions{Activity: l.subjOpts.Activity, Seed: int64(cfg.Seed)}

	l.Reddit, l.AEReddit = corpus.SplitAlterEgos(corpus.Refine(world.Reddit, refine), aeOpts)
	l.TMG, l.AETMG = corpus.SplitAlterEgos(corpus.Refine(world.TMG, refine), aeOpts)
	l.DM, l.AEDM = corpus.SplitAlterEgos(corpus.Refine(world.DM, refine), aeOpts)
	return l, nil
}

func atLeast(n, floor int) int {
	if n < floor {
		return floor
	}
	return n
}

// Context returns the context the lab was built with (context.Background
// for NewLab). Harnesses pass it to MatchAll and the matcher builds so
// their spans reach the lab's tracer.
func (l *Lab) Context() context.Context {
	if l.ctx == nil {
		return context.Background()
	}
	return l.ctx
}

// SubjectOpts returns the paper's subject-building options.
func (l *Lab) SubjectOpts() attribution.SubjectOptions { return l.subjOpts }

// MatcherOpts returns the paper-default matcher options with the lab's
// worker bound.
func (l *Lab) MatcherOpts() attribution.Options {
	o := attribution.DefaultOptions()
	o.Workers = l.Cfg.Workers
	return o
}

// RedditMatcher lazily builds (and caches) the matcher over the full
// refined Reddit dataset — shared by Fig. 2, Table V, Fig. 4 and the §V-C
// de-anonymisation run.
func (l *Lab) RedditMatcher() (*attribution.Matcher, error) {
	if l.redditMatcher != nil {
		return l.redditMatcher, nil
	}
	known, err := attribution.BuildSubjects(l.Reddit, l.SubjectOpts())
	if err != nil {
		return nil, err
	}
	m, err := attribution.NewMatcherContext(l.Context(), known, l.MatcherOpts())
	if err != nil {
		return nil, err
	}
	l.redditMatcher = m
	return m, nil
}

// DarkWeb returns the merged TMG+DM dataset and its alter-ego merge —
// the "DarkWeb"/"AE_DarkWeb" datasets of §IV-G.
func (l *Lab) DarkWeb() (known, ae *forum.Dataset) {
	known = forum.Merge("DarkWeb", forum.PlatformSynthetic, l.TMG, l.DM)
	ae = forum.Merge("AE_DarkWeb", forum.PlatformSynthetic, l.AETMG, l.AEDM)
	return known, ae
}

// DarkMatcher lazily builds the matcher over the merged DarkWeb dataset.
func (l *Lab) DarkMatcher() (*attribution.Matcher, error) {
	if l.darkMatcher != nil {
		return l.darkMatcher, nil
	}
	known, _ := l.DarkWeb()
	subjects, err := attribution.BuildSubjects(known, l.SubjectOpts())
	if err != nil {
		return nil, err
	}
	m, err := attribution.NewMatcherContext(l.Context(), subjects, l.MatcherOpts())
	if err != nil {
		return nil, err
	}
	l.darkMatcher = m
	return m, nil
}

// sampleKnownUnknown draws a known sample and an unknown sample whose
// mates are guaranteed to be inside the known sample — in the paper every
// alter-ego's author is in dataset A, so a sampled experiment must
// preserve that property or accuracy is capped by the sampling rate.
func sampleKnownUnknown(known, unknown []attribution.Subject, nKnown, nUnknown int, seed int64) (k, u []attribution.Subject) {
	k = sampleSubjects(known, nKnown, seed)
	names := make(map[string]bool, len(k))
	for i := range k {
		names[k[i].Name] = true
	}
	withMate := make([]attribution.Subject, 0, len(unknown))
	for i := range unknown {
		if names[unknown[i].Name] {
			withMate = append(withMate, unknown[i])
		}
	}
	u = sampleSubjects(withMate, nUnknown, seed+1)
	return k, u
}

// sampleSubjects draws up to n subjects deterministically.
func sampleSubjects(subjects []attribution.Subject, n int, seed int64) []attribution.Subject {
	if n <= 0 || n >= len(subjects) {
		return subjects
	}
	r := rand.New(rand.NewSource(seed))
	idx := r.Perm(len(subjects))[:n]
	out := make([]attribution.Subject, n)
	for i, j := range idx {
		out[i] = subjects[j]
	}
	return out
}

// predictionsOf converts match results into PR-curve predictions (each
// unknown's best rescored candidate).
func predictionsOf(results []attribution.MatchResult) []eval.Prediction {
	preds := make([]eval.Prediction, 0, len(results))
	for _, r := range results {
		if r.Best.Name == "" {
			continue
		}
		preds = append(preds, eval.Prediction{Unknown: r.Unknown, Candidate: r.Best.Name, Score: r.Best.Score})
	}
	return preds
}

// Timer measures harness wall-clock durations for the §IV-F comparison.
type Timer struct{ start time.Time }

// StartTimer begins timing.
//
//lint:ignore wallclock Timer measures harness runtime for the §IV-F speed comparison; durations are reported as timings, never mixed into attribution output
func StartTimer() Timer { return Timer{start: time.Now()} }

// Elapsed returns the wall-clock duration so far.
//
//lint:ignore wallclock same as StartTimer: wall-clock is the measurement itself here
func (t Timer) Elapsed() time.Duration { return time.Since(t.start) }

// ResetCaches drops the lab's memoised matchers and curves so a benchmark
// iteration measures the full computation rather than a map lookup.
func (l *Lab) ResetCaches() {
	l.redditMatcher = nil
	l.darkMatcher = nil
	l.curves = nil
}
