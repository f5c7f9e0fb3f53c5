// Package prefilter holds the two stage-1 candidate pre-filters kept beside
// the exact scan: a lossless WAND-style upper-bound pruning pass
// (ModePruned) and an approximate banded-MinHash filter (ModeLSH), each at
// one fixed operating point. Neither is selectable by an operator: a
// matcher's stage 1 is the plain exact scan (ModeExact), and the two modes
// are reached only by a library caller passing attribution.MatchOptions.Mode
// — the full-path benchmark's traced rows (attribution.rank_{pruned,lsh}_ms,
// prefilter.*), kept as the instruments of the ROADMAP item 3 trial.
//
// The package owns the mode vocabulary, the term ordering and the bound
// heap the pruned scan pops candidates from, and the deterministic seeded
// MinHash index. The attribution matcher composes these into its ranking
// paths.
//
// Everything here is deterministic: the hash family is derived from a fixed
// seed by splitmix64 (no math/rand, no time), bucket lists are built in
// ascending subject order, and candidate unions are sorted before use, so a
// query returns the same candidate set on every run and on every worker.
package prefilter

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
	// sharing a band bucket with the query are scored. Recall is not
	// guaranteed: the benchmark's traced run measures it
	// (prefilter.lsh_recall_at_k).
	ModeLSH
)

// String returns the spelling of the mode in request spans.
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

// MinHashValueFloor is the smallest unit-norm gram value a feature needs to
// enter a MinHash set. Corpus-universal grams survive the frequency-ranked
// vocabulary cut but carry IDF ≈ 0 (idf(N, df=N) is exactly 0), so they sit
// in every subject's gram-id set with a near-zero value — hashing them
// inflates every cross-subject Jaccard (and therefore the candidate count)
// without making true matches any more likely to collide. The floor must
// cut ONLY that weightless band: a gram at 1e-4 on a unit-norm vector
// contributes at most 1e-4 to any cosine, and all floored grams together at
// most 1e-4·sqrt(d) (~0.006 at d = 3400), while an aggressive cut (say the
// top value quartile) would replace stable set membership with a noisy TF
// ordering and wreck the Jaccard estimate. The floor is part of the LSH
// mode's definition: index side and query side both apply it, so the
// estimate stays symmetric.
const MinHashValueFloor = 1e-4

// Stats report what one pre-filtered query did. All fields are counts of
// work performed — never durations — so totals are identical for any worker
// count and with tracing on or off.
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
