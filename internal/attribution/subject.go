// Package attribution is the paper's core contribution: large-scale alias
// linking via two-stage cosine similarity over stylometric + daily-activity
// features.
//
// Stage 1 (§IV-C, "k-attribution"): rank every known alias against the
// unknown by cosine similarity over the space-reduction feature space
// (Table II) and keep the top k = 10 candidates.
//
// Stage 2 (§IV-E, §IV-I): recompute TF-IDF over only those k candidates'
// documents — the extraction stage 1 read — which reselects the n-gram
// vocabulary under the final budgets, rescore with cosine, and accept the
// best candidate iff its score clears the global threshold t = 0.4190.
package attribution

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"darklight/internal/activity"
	"darklight/internal/corpus"
	"darklight/internal/features"
	"darklight/internal/forum"
	"darklight/internal/sparse"
)

// DefaultK is the paper's candidate-set size (§IV-C: k = 10).
const DefaultK = 10

// DefaultThreshold is the global acceptance threshold found on the W1
// Reddit split (§IV-E: cosine 0.4190 → 94% precision, 80% recall).
const DefaultThreshold = 0.4190

// DefaultWordBudget is the per-alias text size (§IV-C1: 1,500 words).
const DefaultWordBudget = 1500

// Subject is one alias prepared for matching: its analysis document and
// (optionally) its daily activity profile.
type Subject struct {
	// Name is the alias name; the platform is implicit in the dataset the
	// subject came from.
	Name string
	// Text is the analysis document (longest messages first, truncated to
	// the word budget).
	Text string
	// Activity is the daily activity profile, nil when unavailable or
	// disabled.
	Activity *activity.Profile
}

// SubjectOptions configure BuildSubjects.
type SubjectOptions struct {
	// WordBudget caps the document size; 0 means DefaultWordBudget,
	// negative means unlimited.
	WordBudget int
	// Activity controls timestamp alignment/exclusion for the profile.
	Activity activity.Options
	// WithActivity enables profile construction. Subjects whose usable
	// timestamps fall below the activity minimum get a nil profile rather
	// than an error: the matcher simply scores them on text alone.
	WithActivity bool
	// Workers bounds the parallelism of subject construction; 0 means
	// GOMAXPROCS. Subjects are independent of each other, so the output is
	// identical for any worker count, and a record of the options leaves it
	// out.
	Workers int `json:"-"`
}

// DefaultSubjectOptions returns the paper's subject construction: 1,500-word
// documents and UTC-aligned activity profiles with weekends and the 2017 US
// holidays excluded (§IV-B, §IV-C1). Each call builds a fresh holiday
// calendar, so a caller that builds subjects repeatedly keeps the result.
func DefaultSubjectOptions() SubjectOptions {
	return SubjectOptions{
		WordBudget:   DefaultWordBudget,
		Activity:     activity.PaperOptions(2017),
		WithActivity: true,
	}
}

// BuildSubjects converts a dataset into matchable subjects. Document
// selection and activity-profile construction fan out over the aliases;
// the returned slice is in dataset order regardless of worker count.
//
// An alias with too few usable timestamps for an activity profile gets a
// nil profile (the matcher scores it on text alone — §IV-D's fallback);
// any other profile-construction failure aborts the build with the alias
// named in the error rather than silently degrading that subject.
func BuildSubjects(d *forum.Dataset, opts SubjectOptions) ([]Subject, error) {
	budget := opts.WordBudget
	if budget == 0 {
		budget = DefaultWordBudget
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = shardCount(workers, d.Len())
	subjects := make([]Subject, d.Len())
	errs := make([]error, workers)
	parallelChunks(workers, d.Len(), func(w, lo, hi int) {
		// One worker's working memory, kept from alias to alias: a subject
		// then allocates its text and its profile.
		var doc corpus.DocScratch
		var stamps []time.Time
		var hours []int64
		for i := lo; i < hi; i++ {
			a := &d.Aliases[i]
			s := Subject{Name: a.Name, Text: corpus.Document(a, budget, &doc)}
			if opts.WithActivity {
				stamps = stamps[:0]
				for j := range a.Messages {
					stamps = append(stamps, a.Messages[j].PostedAt)
				}
				hours = slices.Grow(hours[:0], len(stamps))
				p, err := activity.Build(stamps, opts.Activity, hours)
				switch {
				case err == nil:
					s.Activity = p
				case errors.Is(err, activity.ErrInsufficientTimestamps):
					// Expected: score on text alone.
				default:
					if errs[w] == nil {
						errs[w] = fmt.Errorf("attribution: subject %q: %w", a.Name, err)
					}
				}
			}
			subjects[i] = s
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return subjects, nil
}

// Weights control the relative L2 norm of each feature block in the
// (conceptually) concatenated vector. Raw concatenation — the naive
// reading of the paper — lets the 42 frequency dimensions, whose values
// are orders of magnitude larger than TF-IDF weights and nearly identical
// across users, dominate the cosine; every pair then scores ≈ 0.9 and
// nothing separates. Each block is therefore normalised to unit norm and
// scaled: n-grams at 1.0, frequency and activity at the weights below.
type Weights struct {
	// Freq is the relative norm of the 42 punctuation/digit/special-char
	// frequency dimensions.
	Freq float64
	// Activity is the relative norm of the 24 daily-activity bins;
	// 0 disables the activity feature ("text only" in Table III/Fig. 4).
	Activity float64
}

// blocks is a subject decomposed into its three per-block-normalised
// feature vectors. The cosine of two concatenated weighted vectors equals
//
//	(tDot + wf²·fDot + wa²·aDot) / (norm(u) · norm(v))
//
// with norm(x) = sqrt(1 + wf²·hasF + wa²·hasA), so keeping the blocks
// separate lets one index answer rankings under any weighting — Table III
// and Fig. 4 compare "text" vs "all" from a single pass.
type blocks struct {
	grams sparse.Vector // unit norm (zero vector when the doc is empty)
	freq  []float64     // unit norm, nil when all-zero
	act   []float64     // unit norm, nil when no profile
}

// buildBlocks extracts and normalises the three blocks of a subject.
func buildBlocks(s *Subject, vocab *features.Vocabulary, cfg features.Config) blocks {
	d := features.Extract(s.Text, cfg)
	return blocksOf(vocab.VectorizeGramsSorted(d), &d.Freq, s)
}

// blocksOf assembles a subject's blocks around the TF-IDF gram vector
// already vectorized from its document by the reduction vocabulary, and
// that document's frequencies — the index pass and the stage-1 query share
// one vectorizer, so the blocks are bit-identical whichever way the
// document was obtained. grams is normalised in place and stays aliased.
// (Stage 2 never materialises its blocks' gram vectors: Query.rescore takes
// the gram dots from CandidateVocab.Score.)
func blocksOf(grams sparse.Vector, freq *[features.NumFreqFeatures]float64, s *Subject) blocks {
	return blocks{
		grams: grams.Normalize(),
		freq:  normalizedFreq(*freq),
		act:   normalizedActivity(s),
	}
}

// normalizedFreq returns the unit-norm frequency block, nil when all-zero.
func normalizedFreq(freq [features.NumFreqFeatures]float64) []float64 {
	return unitDense(freq[:])
}

// normalizedActivity returns the unit-norm activity block, nil when the
// subject has no (or an empty) profile.
func normalizedActivity(s *Subject) []float64 {
	if s.Activity == nil {
		return nil
	}
	return unitDense(s.Activity.Bins[:])
}

// unitDense returns xs scaled to unit norm in a new slice, nil when xs is
// all-zero.
func unitDense(xs []float64) []float64 {
	var norm float64
	for _, x := range xs {
		norm += x * x
	}
	if norm == 0 {
		return nil
	}
	inv := 1 / math.Sqrt(norm)
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * inv
	}
	return out
}

// norm returns the concatenated-vector norm of b under w.
func (b *blocks) norm(w Weights) float64 {
	return normOf(b.grams.Len() > 0, b.freq != nil, b.act != nil, w)
}

func denseDot(a, b []float64) float64 {
	if a == nil || b == nil {
		return 0
	}
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// CompositeVector builds the full block-normalised concatenated feature
// vector of a subject: unit-norm n-gram block, frequency block scaled to
// w.Freq, activity block scaled to w.Activity, overall L2-normalised.
// Exported for the baselines package so the Koppel random-subspace method
// operates on exactly the feature space of the main method — otherwise the
// raw frequency magnitudes dominate its subspaces and the comparison is
// unfair.
func CompositeVector(s *Subject, vocab *features.Vocabulary, cfg features.Config, w Weights) sparse.Vector {
	b := buildBlocks(s, vocab, cfg)
	vec := b.grams.Clone()
	if b.freq != nil && w.Freq != 0 {
		fv := sparse.FromDense(b.freq).Scale(w.Freq)
		vec = sparse.Concat(vec, fv, vocab.FreqOffset())
	}
	if b.act != nil && w.Activity != 0 {
		av := sparse.FromDense(b.act).Scale(w.Activity)
		vec = sparse.Concat(vec, av, vocab.ActivityOffset())
	}
	return vec.Normalize()
}
