package attribution

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"

	"darklight/internal/features"
)

// ErrNotIncremental is returned by State and Fold on a matcher built
// without Options.Incremental: it dropped the corpus counters and cached
// extractions those operations need.
var ErrNotIncremental = errors.New("attribution: matcher was not built with Options.Incremental")

// IndexState is what the index pass runs from, as value types: the options,
// the corpus counters, and each known subject's cached extraction.
// Everything else a matcher holds — the vocabulary cut from the counters,
// forward and inverted gram index, dense blocks — is a pure function of
// these and is rebuilt, not persisted (what only a pre-filter mode reads is
// derived from those when a query first asks for that mode).
// Subjects themselves are not included — callers persist them alongside
// and pass them back to NewMatcherFromState.
//
// The state shares backing arrays with the matcher it came from; treat it
// as read-only.
type IndexState struct {
	Opts  Options
	Stats features.BuilderState
	Docs  []*features.SortedDoc
}

// State snapshots the index for persistence, with the options as the
// matcher was given them, not as it resolved them. Only incremental matchers
// can be snapshotted.
func (m *Matcher) State() (IndexState, error) {
	if m.docs == nil {
		return IndexState{}, ErrNotIncremental
	}
	stats, err := m.stats.State()
	if err != nil {
		return IndexState{}, err
	}
	return IndexState{Opts: m.given, Stats: stats, Docs: m.docs}, nil
}

// NewMatcherFromState rebuilds a matcher from a snapshot — the cold-start
// path: no extraction and no counting, then the tail of a Fold — the
// vocabulary cut and the index pass — so a load, a build and a fold cannot
// drift apart. known
// must be the exact subject slice the state was saved against (same
// order); Rank, Rescore, Match, and MatchAll output is bit-identical to the
// matcher State was called on.
func NewMatcherFromState(known []Subject, st IndexState) (*Matcher, error) {
	if err := validateOptions(st.Opts.WithDefaults()); err != nil {
		return nil, err
	}
	if len(st.Docs) != len(known) || slices.Contains(st.Docs, nil) {
		return nil, fmt.Errorf("attribution: index state needs one document for each of %d subjects, has %d", len(known), len(st.Docs))
	}
	stats, err := features.NewVocabBuilderFromState(st.Stats)
	if err != nil {
		return nil, err
	}
	return foldTail(context.Background(), known, st.Docs, stats, st.Opts)
}

// foldTail cuts the vocabulary from the counters and runs the index pass
// under the options as given, resolved where this runs.
func foldTail(ctx context.Context, known []Subject, docs []*features.SortedDoc, stats *features.VocabBuilder, given Options) (*Matcher, error) {
	vocab, err := stats.Build()
	if err != nil {
		return nil, fmt.Errorf("attribution: corpus counters: %w", err)
	}
	return newMatcherFromDocs(ctx, known, docs, stats, vocab, given)
}

// Fold returns a new matcher with the changed subjects applied — updated
// in place when the name is already known, appended otherwise — without
// re-extracting or re-counting the unchanged corpus. The changed subjects'
// old documents, negated, and their new ones sum to one sorted delta, which
// is merged with the counter arrays (plain integer sums, so the folded
// counters equal a from-scratch count of the new corpus; m's own arrays are
// read, not written), the vocabulary is re-cut, and only the index pass
// re-runs, from cached extractions. The result is bit-identical to a full
// rebuild over the updated subject list; m itself is never mutated and
// keeps serving. Counters that do not hold a document Fold takes out —
// an index whose documents and counters disagree — are an error.
//
// The known set stays sorted by name, matching the canonical order
// BuildSubjects produces from a name-sorted dataset.
func (m *Matcher) Fold(ctx context.Context, changed []Subject) (*Matcher, error) {
	if m.docs == nil {
		return nil, ErrNotIncremental
	}
	stats := m.stats.Clone()
	known := slices.Clone(m.known)
	docs := slices.Clone(m.docs)
	idx := make(map[string]int, len(known))
	for i := range known {
		idx[known[i].Name] = i
	}
	for _, c := range changed {
		sd := features.Extract(c.Text, m.opts.Reduction)
		if i, ok := idx[c.Name]; ok {
			stats.RemoveSorted(docs[i])
			stats.AddSorted(sd)
			known[i] = c
			docs[i] = sd
		} else {
			idx[c.Name] = len(known)
			known = append(known, c)
			docs = append(docs, sd)
			stats.AddSorted(sd)
		}
	}
	order := make([]int, len(known))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return known[order[a]].Name < known[order[b]].Name })
	sortedKnown := make([]Subject, len(known))
	sortedDocs := make([]*features.SortedDoc, len(known))
	for j, i := range order {
		sortedKnown[j] = known[i]
		sortedDocs[j] = docs[i]
	}
	return foldTail(ctx, sortedKnown, sortedDocs, stats, m.given)
}

// Subjects exposes the known subjects in index order. The slice is the
// matcher's own; callers must not mutate it.
func (m *Matcher) Subjects() []Subject { return m.known }

// Options reports the (defaulted) options the matcher was built with.
func (m *Matcher) Options() Options { return m.opts }
