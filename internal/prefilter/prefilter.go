// Package prefilter implements the two stage-1 candidate pre-filters meant
// to make ranking sub-linear in the known-set size: a lossless WAND-style
// upper-bound pruning pass (ModePruned) and an approximate banded-MinHash
// filter (ModeLSH). Neither is selectable by an operator: a matcher's stage 1
// is the plain exact scan (ModeExact), which the full-path benchmark measures
// as the fastest of the three at the world sizes we serve (BENCHMARK.json
// attribution.rank_{exact,pruned,lsh}_ms, prefilter.scored_frac), and the
// two modes are reached only by a library caller passing
// attribution.MatchOptions.Mode — the benchmark's traced rows and the
// internal/eval sweep, kept as the instruments of the ROADMAP item 3 trial.
//
// The package owns the mode/parameter vocabulary, the term ordering and the
// bound heap the pruned scan pops candidates from, and the deterministic
// seeded MinHash index. The attribution matcher composes these into its
// ranking paths; the eval harness (internal/eval) measures the approximate
// mode's recall at each operating point rather than assuming it.
//
// Everything here is deterministic: the hash family is derived from a fixed
// seed by splitmix64 (no math/rand, no time), bucket lists are built in
// ascending subject order, and candidate unions are sorted before use, so a
// query returns the same candidate set on every run and on every worker.
package prefilter

import (
	"fmt"

	"darklight/internal/obs"
)

// Mode selects the stage-1 candidate pre-filter.
type Mode uint8

const (
	// ModeDefault is a query that names no mode: it runs ModeExact.
	ModeDefault Mode = iota
	// ModeExact disables the pre-filter: every known subject is scored.
	ModeExact
	// ModePruned is the lossless upper-bound pruning pass: subjects whose
	// score bound cannot reach the current top-k are never exactly scored.
	// Its top-k is bit-identical to ModeExact's.
	ModePruned
	// ModeLSH is the approximate banded-MinHash filter: only subjects
	// sharing a band bucket with the query are scored. Recall is measured
	// by the eval harness, not guaranteed.
	ModeLSH
)

// String returns the spelling of the mode in spans, metric labels and the
// eval sweep's operating points.
func (m Mode) String() string {
	switch m {
	case ModeExact:
		return "exact"
	case ModePruned:
		return "pruned"
	case ModeLSH:
		return "lsh"
	default:
		return "default"
	}
}

// ParseMode parses an operating point's mode string. The empty string is
// ModeDefault.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "":
		return ModeDefault, nil
	case "exact":
		return ModeExact, nil
	case "pruned":
		return ModePruned, nil
	case "lsh":
		return ModeLSH, nil
	default:
		return ModeDefault, fmt.Errorf("prefilter: unknown mode %q (want exact, pruned, or lsh)", s)
	}
}

// Defaults. The pruned safety margins are deliberately generous relative to
// float32 accumulation error (scores are at most ~1): losslessness must
// never hinge on a tight epsilon. The LSH operating point (32 bands of 3
// rows) is chosen from measured gram-set Jaccard on synth worlds: two
// documents by the same author land around s = 0.35-0.55 under the
// reduction extraction (word 1-3 + char 1-5 grams), where the candidate
// probability 1-(1-s^3)^32 is 0.72-0.996, while unrelated subjects with
// distinct vocabularies sit near s <= 0.05 and collide with probability
// under 0.005. internal/eval sweeps this point against its neighbours.
const (
	DefaultSlack     = 1e-3
	DefaultTailShare = 0.05
	DefaultBands     = 32
	DefaultRows      = 3
	// DefaultSeed spells "darkligh"; any fixed value works, it just must
	// never vary between runs.
	DefaultSeed = uint64(0x6461726b6c696768)
	// MinHashValueFloor is the smallest unit-norm gram value a feature
	// needs to enter a MinHash set. Corpus-universal grams survive the
	// frequency-ranked vocabulary cut but carry IDF ≈ 0 (idf(N, df=N) is
	// exactly 0), so they sit in every subject's gram-id set with a near-
	// zero value — hashing them inflates every cross-subject Jaccard (and
	// therefore the candidate count) without making true matches any more
	// likely to collide. The floor must cut ONLY that weightless band: a
	// gram at 1e-4 on a unit-norm vector contributes at most 1e-4 to any
	// cosine, and all floored grams together at most 1e-4·sqrt(d) (~0.006
	// at d = 3400), while an aggressive cut (say the top value quartile)
	// would replace stable set membership with a noisy TF ordering and
	// wreck the Jaccard estimate. The floor is part of the LSH mode's
	// definition: index side and query side both apply it, so the estimate
	// stays symmetric.
	MinHashValueFloor = 1e-4
)

// PrunedParams are the safety knobs of the lossless mode. Both knobs trade
// pruning power for bound tightness, never correctness: larger values skip
// fewer subjects but the top-k stays bit-identical at any setting.
type PrunedParams struct {
	// Slack is an extra additive margin on every upper bound, on top of
	// the fixed float32-drift guards the matcher always applies. 0 means
	// DefaultSlack.
	Slack float64
	// TailShare is the fraction of total query impact that may remain
	// unwalked after the posting sweep: the walk stops early and the
	// remaining impact is folded into every bound instead. 0 means
	// DefaultTailShare; negative walks every term.
	TailShare float64
}

// WithDefaults fills zero knobs.
func (p PrunedParams) WithDefaults() PrunedParams {
	if p.Slack == 0 {
		p.Slack = DefaultSlack
	}
	if p.TailShare == 0 {
		p.TailShare = DefaultTailShare
	}
	return p
}

// LSHParams are one MinHash-LSH operating point. Two signatures collide in
// a band iff their Rows minima all agree, so the candidate probability for
// Jaccard similarity s is 1-(1-s^Rows)^Bands: more rows sharpens the
// cutoff, more bands shifts it toward recall.
type LSHParams struct {
	// Bands is the number of independent bucket tables. 0 means
	// DefaultBands.
	Bands int
	// Rows is the number of MinHash values folded into each band key.
	// 0 means DefaultRows.
	Rows int
	// Seed derives the hash family. 0 means DefaultSeed.
	Seed uint64
}

// WithDefaults fills zero knobs.
func (p LSHParams) WithDefaults() LSHParams {
	if p.Bands <= 0 {
		p.Bands = DefaultBands
	}
	if p.Rows <= 0 {
		p.Rows = DefaultRows
	}
	if p.Seed == 0 {
		p.Seed = DefaultSeed
	}
	return p
}

// Stats report what one pre-filtered query did. All fields are counts of
// work performed — never durations — so totals are identical for any worker
// count and with tracing on or off (the same discipline as the matcher's
// own metrics).
type Stats struct {
	// Mode is the mode that actually ran (a per-query ModeDefault resolves
	// before stats are taken).
	Mode Mode
	// Candidates is how many subjects survived the pre-filter.
	Candidates int
	// Scored is how many subjects were exactly scored. Equal to Candidates
	// for every current mode; kept separate so a future mode may examine
	// candidates it does not score.
	Scored int
	// Pruned is how many known subjects were skipped without an exact
	// score. Candidates + Pruned is the known-set size.
	Pruned int
	// Evictions is how many full-heap replacements the bounded top-k
	// selection performed: scored candidates that displaced a previously
	// retained entry. A high eviction count relative to Scored means the
	// candidate stream arrived in a poor order for the heap (request
	// traces surface it per query for exactly that diagnosis).
	Evictions int
}

// Pre-filter metrics, registered on the default registry like the
// matcher's own.
var (
	mQueries = obs.Default().CounterVec("prefilter_queries_total",
		"stage-1 queries by the pre-filter mode that ran", "mode")
	mScored = obs.Default().Counter("prefilter_scored_total",
		"known subjects exactly scored after pre-filtering")
	mPruned = obs.Default().Counter("prefilter_pruned_total",
		"known subjects skipped by the pre-filter without an exact score")
	mCandidates = obs.Default().Histogram("prefilter_candidates",
		"candidate-set sizes surviving the pre-filter",
		[]float64{1, 10, 100, 1000, 10000, 100000, 1000000})
)

// Observe records one query's stats on the package metrics.
func Observe(st Stats) {
	mQueries.With(st.Mode.String()).Inc()
	mScored.Add(int64(st.Scored))
	mPruned.Add(int64(st.Pruned))
	mCandidates.Observe(float64(st.Candidates))
}
