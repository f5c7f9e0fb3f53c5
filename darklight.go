// Package darklight reproduces "A Light in the Dark Web: Linking Dark Web
// Aliases to Real Internet Identities" (Arabnezhad, La Morgia, Mei, Nemmi,
// Stefa — ICDCS 2020): a large-scale alias-linking pipeline that combines
// stylometry (word/char n-grams, punctuation habits, TF-IDF, cosine
// similarity) with daily-activity profiles, using two-stage k-attribution
// to scale to tens of thousands of candidate authors.
//
// The package is a thin facade over the internal implementation. The
// typical flow is:
//
//	world, _ := darklight.GenerateWorld(darklight.WorldConfig{Seed: 1, Scale: 0.05})
//	pipe := darklight.NewPipeline()
//	pipe.Polish(world.Reddit)               // §III-C cleaning
//	refined := pipe.Refine(world.Reddit)    // §IV-D thresholds
//	main, ae := pipe.SplitAlterEgos(refined)
//	matches, _ := pipe.Link(ctx, main, ae)  // §IV-I algorithm
//
// Real (scraped) data can be loaded with LoadJSONL instead of the
// generator; the pipeline does not care where messages come from.
package darklight

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"

	"darklight/internal/anonymize"
	"darklight/internal/attribution"
	"darklight/internal/corpus"
	"darklight/internal/forum"
	"darklight/internal/normalize"
	"darklight/internal/synth"
)

// Re-exported core types. These aliases are the public names of the data
// model; the internal packages remain the single source of truth.
type (
	// Dataset is a named collection of aliases from one platform.
	Dataset = forum.Dataset
	// Alias is one account and everything it posted.
	Alias = forum.Alias
	// Message is a single forum post.
	Message = forum.Message
	// Platform identifies the source site kind.
	Platform = forum.Platform
	// World is a generated three-forum universe with ground truth.
	World = synth.World
	// GroundTruth records which aliases belong to the same person.
	GroundTruth = synth.GroundTruth
	// PolishReport describes what each cleaning step removed.
	PolishReport = normalize.Report
	// MatchResult is the full outcome of linking one unknown alias.
	MatchResult = attribution.MatchResult
	// Subject is an alias prepared for matching.
	Subject = attribution.Subject
)

// Platform constants.
const (
	PlatformReddit            = forum.PlatformReddit
	PlatformTheMajesticGarden = forum.PlatformTheMajesticGarden
	PlatformDreamMarket       = forum.PlatformDreamMarket
	PlatformSynthetic         = forum.PlatformSynthetic
)

// Paper constants.
const (
	// DefaultThreshold is the published global acceptance threshold
	// (§IV-E: 0.4190).
	DefaultThreshold = attribution.DefaultThreshold
	// DefaultK is the k-attribution candidate count (§IV-C: 10).
	DefaultK = attribution.DefaultK
	// DefaultWordBudget is the per-alias document size (§IV-C1: 1,500).
	DefaultWordBudget = attribution.DefaultWordBudget
)

// WorldConfig sizes a synthetic world.
type WorldConfig struct {
	// Seed makes generation reproducible (default 1).
	Seed uint64
	// Scale multiplies the paper's population (16,567 Reddit / 4,709 TMG /
	// 6,348 DM aliases at 1.0). Default 0.05.
	Scale float64
}

// GenerateWorld builds a synthetic three-forum world with ground truth —
// the stand-in for the paper's scraped corpora (see DESIGN.md §2).
func GenerateWorld(cfg WorldConfig) (*World, error) {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Scale == 0 {
		cfg.Scale = 0.05
	}
	gen := synth.DefaultConfig().Scaled(cfg.Scale)
	gen.Seed = cfg.Seed
	return synth.Generate(gen)
}

// Match is one accepted alias pair.
type Match struct {
	// Unknown is the queried alias, Candidate the linked known alias.
	Unknown, Candidate string
	// Score is the stage-2 cosine similarity.
	Score float64
	// Accepted reports whether Score clears the pipeline threshold.
	Accepted bool
}

// Pipeline bundles the paper's processing stages under its one
// configuration: k = 10, threshold 0.4190, 1,500-word documents,
// weekend/US-holiday-excluded UTC-aligned activity profiles. The zero value
// is not usable; construct with NewPipeline.
type Pipeline struct {
	opts attribution.Options
	subj attribution.SubjectOptions
}

// NewPipeline returns a pipeline with the paper's configuration.
func NewPipeline() *Pipeline {
	return &Pipeline{opts: attribution.DefaultOptions(), subj: attribution.DefaultSubjectOptions()}
}

// MatcherOptions returns the attribution options the pipeline builds its
// matchers with. The serving daemon (cmd/attributed, internal/serve)
// passes these to its own matcher so served scores are bit-identical to
// Pipeline.Link for the same corpus.
func (p *Pipeline) MatcherOptions() attribution.Options { return p.opts }

// SubjectOptions returns the subject-construction settings (word budget,
// activity alignment) behind Pipeline.Subjects. The serving daemon uses
// them to build inline query subjects through exactly the batch path.
func (p *Pipeline) SubjectOptions() attribution.SubjectOptions { return p.subj }

// Polish runs the 12-step §III-C cleaning pipeline in place and returns
// the per-step report. The steps fan out over GOMAXPROCS workers; the
// result is bit-identical for any worker count.
func (p *Pipeline) Polish(d *Dataset) *PolishReport {
	return p.PolishContext(context.Background(), d)
}

// PolishContext is Polish under a context that may carry an obs.Tracer
// (see internal/obs): with tracing enabled the run emits polish spans; the
// dataset and report are bit-identical either way.
func (p *Pipeline) PolishContext(ctx context.Context, d *Dataset) *PolishReport {
	return normalize.NewPipeline().RunContext(ctx, d)
}

// Refine drops aliases below the §IV-D thresholds (1,500 words, 30 usable
// timestamps) and returns the surviving dataset.
func (p *Pipeline) Refine(d *Dataset) *Dataset {
	return corpus.Refine(d, corpus.RefineOptions{Activity: p.subj.Activity})
}

// SplitAlterEgos builds the §IV-D evaluation ground truth: prolific
// aliases are split into disjoint (original, alter-ego) halves that share
// the alias name.
func (p *Pipeline) SplitAlterEgos(d *Dataset) (main, ae *Dataset) {
	return corpus.SplitAlterEgos(d, corpus.AlterEgoOptions{Activity: p.subj.Activity})
}

// Subjects prepares a dataset for matching under the pipeline's word
// budget and activity settings.
func (p *Pipeline) Subjects(d *Dataset) ([]Subject, error) {
	return attribution.BuildSubjects(d, p.subj)
}

// Link runs the full §IV-I algorithm: every alias of unknown is matched
// against the known dataset; pairs whose stage-2 score clears the
// threshold come back with Accepted set. All pairs (accepted or not) are
// returned so callers can sweep their own thresholds.
func (p *Pipeline) Link(ctx context.Context, known, unknown *Dataset) ([]Match, error) {
	results, err := p.LinkDetailed(ctx, known, unknown)
	if err != nil {
		return nil, err
	}
	out := make([]Match, 0, len(results))
	for _, r := range results {
		if r.Best.Name == "" {
			continue
		}
		out = append(out, Match{
			Unknown:   r.Unknown,
			Candidate: r.Best.Name,
			Score:     r.Best.Score,
			Accepted:  r.Accepted,
		})
	}
	return out, nil
}

// LinkDetailed is Link returning the full per-unknown match results
// (stage-1 candidates and stage-2 rescoring included).
func (p *Pipeline) LinkDetailed(ctx context.Context, known, unknown *Dataset) ([]MatchResult, error) {
	knownSubs, err := p.Subjects(known)
	if err != nil {
		return nil, fmt.Errorf("darklight: prepare known aliases: %w", err)
	}
	m, err := attribution.NewMatcherContext(ctx, knownSubs, p.opts)
	if err != nil {
		return nil, fmt.Errorf("darklight: index known aliases: %w", err)
	}
	unknownSubs, err := p.Subjects(unknown)
	if err != nil {
		return nil, fmt.Errorf("darklight: prepare unknown aliases: %w", err)
	}
	return m.MatchAll(ctx, unknownSubs)
}

// LoadJSONL reads a dataset from a JSON-lines file (one Message object per
// line; aliases are grouped by author).
func LoadJSONL(path, name string, platform Platform) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("darklight: %w", err)
	}
	defer f.Close()
	return forum.ReadJSONL(f, name, platform)
}

// SaveJSONL writes a dataset as JSON lines.
func SaveJSONL(path string, d *Dataset) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("darklight: %w", err)
	}
	if err := forum.WriteJSONL(f, d); err != nil {
		return errors.Join(err, f.Close())
	}
	return f.Close()
}

// ReadJSONL and WriteJSONL are the io.Reader/Writer forms of the loaders.
func ReadJSONL(r io.Reader, name string, platform Platform) (*Dataset, error) {
	return forum.ReadJSONL(r, name, platform)
}

// WriteJSONL writes every message of the dataset to w, one JSON object per
// line.
func WriteJSONL(w io.Writer, d *Dataset) error {
	return forum.WriteJSONL(w, d)
}

// Verification is the outcome of a pairwise authorship-verification check
// (§II of the paper distinguishes attribution — "which of these candidates
// wrote it" — from verification — "did this specific candidate write it").
type Verification struct {
	// Score is the stage-2 cosine similarity between the two aliases.
	Score float64
	// SameAuthor reports Score >= the pipeline threshold.
	SameAuthor bool
	// Threshold echoes the threshold used for the decision.
	Threshold float64
}

// Verify answers the authorship-verification question for one alias pair:
// are `unknown` and `candidate` the same person? Both aliases are reduced
// to their analysis documents and activity profiles, features and TF-IDF
// are computed over the provided background dataset (which should contain
// candidate's peers — IDF needs a population), and the §IV-I second-stage
// score is compared against the threshold.
func (p *Pipeline) Verify(background *Dataset, unknown, candidate Alias) (Verification, error) {
	bg := forum.NewDataset(background.Name, background.Platform)
	bg.Aliases = append(bg.Aliases, background.Aliases...)
	if _, err := bg.Find(candidate.Name); err != nil {
		bg.Add(candidate)
	}
	bgSubs, err := p.Subjects(bg)
	if err != nil {
		return Verification{}, fmt.Errorf("darklight: verify: %w", err)
	}
	m, err := attribution.NewMatcher(bgSubs, p.opts)
	if err != nil {
		return Verification{}, fmt.Errorf("darklight: verify: %w", err)
	}
	uDS := forum.NewDataset("unknown", background.Platform)
	uDS.Add(unknown)
	uSubs, err := p.Subjects(uDS)
	if err != nil {
		return Verification{}, fmt.Errorf("darklight: verify: %w", err)
	}
	scored := m.Rescore(&uSubs[0], []attribution.Scored{{Name: candidate.Name}})
	if len(scored) == 0 {
		return Verification{Threshold: p.opts.Threshold}, nil
	}
	v := Verification{
		Score:     scored[0].Score,
		Threshold: p.opts.Threshold,
	}
	v.SameAuthor = v.Score >= v.Threshold
	return v, nil
}

// AnonymizeOptions re-exports the §VI countermeasure configuration.
type AnonymizeOptions = anonymize.Options

// DefaultAnonymizeOptions enables every textual defence plus a 24-hour
// scheduled-posting queue.
func DefaultAnonymizeOptions() AnonymizeOptions { return anonymize.DefaultOptions() }

// Anonymize applies the §VI countermeasures — misspelling/slang
// normalisation, case and punctuation flattening, opener removal, and
// posting-time rescheduling — returning a rewritten copy of the dataset.
// It is the defensive counterpart of Link: run it on your own outgoing
// posts to blunt exactly the features this pipeline exploits.
func Anonymize(d *Dataset, opts AnonymizeOptions) *Dataset {
	return anonymize.New(opts).Dataset(d)
}

// AnonymizeText rewrites a single message body under the given options.
func AnonymizeText(body string, opts AnonymizeOptions) string {
	return anonymize.New(opts).Text(body)
}
