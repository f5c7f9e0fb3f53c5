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
// without Options.Incremental: it keeps its documents but dropped the corpus
// counters those operations need.
var ErrNotIncremental = errors.New("attribution: matcher was not built with Options.Incremental")

// IndexState is what the index pass runs from, as value types: the options,
// the corpus counters, and each known subject's reduction document, its
// grams numbered by the counters' gram lists (Stats.Words, Stats.Chars) and
// held in packed lists — the bytes a snapshot stores. Everything else a
// matcher holds — the vocabulary cut from the counters, forward and inverted
// gram index, dense blocks — is a pure function of these and is rebuilt, not
// persisted (what only a pre-filter mode reads is derived from those when a
// query first asks for that mode). The subjects are not included: a store
// derives them from its corpus.
//
// The state shares backing arrays with the matcher it came from; treat it
// as read-only.
type IndexState struct {
	Opts  Options
	Stats features.BuilderState
	Docs  []*features.NumberedDoc
}

// State snapshots the index for persistence, with the options as the
// matcher was given them, not as it resolved them. Only incremental matchers
// can be snapshotted.
func (m *Matcher) State() (IndexState, error) {
	if m.stats == nil {
		return IndexState{}, ErrNotIncremental
	}
	stats, err := m.stats.State()
	if err != nil {
		return IndexState{}, err
	}
	return IndexState{Opts: m.given, Stats: stats, Docs: m.docs}, nil
}

// NewMatcherFromState rebuilds a matcher from a snapshot — the cold-start
// path: no extraction, no counting and no numbering, then the tail of a
// Fold — the vocabulary cut and the index pass — so a load, a build and a
// fold cannot drift apart. The documents are kept as they are. known
// must be the exact subject slice the state was saved against (same
// order); Rank, Rescore, Match, and MatchAll output is bit-identical to the
// matcher State was called on.
//
// It checks the options and the document count, not the counters or the
// lists: st comes from Matcher.State, or from a load that checked every list
// against the counters and summed the counters from the lists.
func NewMatcherFromState(known []Subject, st IndexState) (*Matcher, error) {
	if err := validateOptions(st.Opts.WithDefaults()); err != nil {
		return nil, err
	}
	if len(st.Docs) != len(known) || slices.Contains(st.Docs, nil) {
		return nil, fmt.Errorf("attribution: index state needs one document for each of %d subjects, has %d", len(known), len(st.Docs))
	}
	stats := features.NewVocabBuilderFromState(st.Opts.Reduction, len(st.Docs), st.Stats)
	return foldTail(context.Background(), known, st.Docs, nil, stats, st.Opts)
}

// foldTail cuts the vocabulary from the counters and runs the index pass
// under the options as given, resolved where this runs.
func foldTail(ctx context.Context, known []Subject, docs []*features.NumberedDoc, fresh []*features.PackedDoc, stats *features.VocabBuilder, given Options) (*Matcher, error) {
	vocab, err := stats.Build()
	if err != nil {
		return nil, fmt.Errorf("attribution: corpus counters: %w", err)
	}
	return newMatcherFromDocs(ctx, known, docs, fresh, stats, vocab, given)
}

// Fold returns a new matcher with the changed subjects applied — updated
// in place when the name is already known, appended otherwise — without
// re-extracting or re-counting the unchanged corpus. The replaced
// subjects' documents leave the counters by number, a decrement each entry;
// the new extractions join them by id, merged as a batch (plain integer
// sums, so the folded counters equal a from-scratch count of the new
// corpus; m's own arrays are read, not written). The grams that entered or
// left the counters renumber every unchanged document in one pass over the
// workers — or none at all when no gram did, and the documents are shared
// with m — the vocabulary is re-cut, and only the index pass re-runs, which
// numbers the new extractions. The result is bit-identical to a full
// rebuild over the updated subject list; m itself is never mutated and
// keeps serving. Counters that do not hold a document Fold takes out —
// an index whose documents and counters disagree — are an error.
//
// The known set stays sorted by name, matching the canonical order
// BuildSubjects produces from a name-sorted dataset.
func (m *Matcher) Fold(ctx context.Context, changed []Subject) (*Matcher, error) {
	if m.stats == nil {
		return nil, ErrNotIncremental
	}
	before, err := m.stats.State()
	if err != nil {
		return nil, err
	}
	stats := m.stats.Clone()
	known := slices.Clone(m.known)
	docs := slices.Clone(m.docs)
	idx := make(map[string]int, len(known))
	for i := range known {
		idx[known[i].Name] = i
	}
	// Extraction, the one per-subject cost of a batch, runs on the workers.
	xs := make([]*features.PackedDoc, len(changed))
	parallelChunks(shardCount(m.opts.Workers, len(changed)), len(changed), func(_, lo, hi int) {
		for j := lo; j < hi; j++ {
			xs[j] = features.Extract(changed[j].Text, m.opts.Reduction)
		}
	})
	// A subject's old document leaves and its last extraction of the batch
	// comes in; the counters are sums, so the order they change in is free.
	// The old documents go first, while their numbers still name the counters.
	fresh := make([]*features.PackedDoc, len(known), len(known)+len(changed))
	var gone []*features.NumberedDoc
	for j, c := range changed {
		i, ok := idx[c.Name]
		if !ok {
			i = len(known)
			idx[c.Name] = i
			known = append(known, c)
			docs = append(docs, nil)
			fresh = append(fresh, nil)
		} else if docs[i] != nil {
			gone = append(gone, docs[i])
			docs[i] = nil
		}
		known[i] = c
		fresh[i] = xs[j]
	}
	stats.RemoveNumbered(gone)
	for _, x := range fresh {
		if x != nil {
			stats.Add(x)
		}
	}
	after, err := stats.State()
	if err != nil {
		return nil, fmt.Errorf("attribution: corpus counters: %w", err)
	}
	if err := renumberDocs(docs, features.NewRenumbering(before.Words, before.Chars, after.Words, after.Chars), m.opts.Workers); err != nil {
		return nil, fmt.Errorf("attribution: %w", err)
	}

	order := make([]int, len(known))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return known[order[a]].Name < known[order[b]].Name })
	sortedKnown := make([]Subject, len(known))
	sortedDocs := make([]*features.NumberedDoc, len(known))
	sortedFresh := make([]*features.PackedDoc, len(known))
	for j, i := range order {
		sortedKnown[j] = known[i]
		sortedDocs[j] = docs[i]
		sortedFresh[j] = fresh[i]
	}
	return foldTail(ctx, sortedKnown, sortedDocs, sortedFresh, stats, m.given)
}

// renumberDocs carries the documents of docs (nil slots are skipped) to the
// new numbers in place, one contiguous chunk of them on each worker, each
// document packed again in an array of its own. When no gram entered or
// left, the documents stay as they are.
func renumberDocs(docs []*features.NumberedDoc, r features.Renumbering, workers int) error {
	if r.Identity() {
		return nil
	}
	shards := shardCount(workers, len(docs))
	errs := make([]error, shards)
	parallelChunks(shards, len(docs), func(s, lo, hi int) {
		out := make([]features.NumberedDoc, hi-lo)
		var scratch features.Scratch
		for i := lo; i < hi && errs[s] == nil; i++ {
			if docs[i] != nil {
				errs[s] = r.Apply(&out[i-lo], docs[i], &scratch)
				docs[i] = &out[i-lo]
			}
		}
	})
	return errors.Join(errs...)
}

// Subjects exposes the known subjects in index order. The slice is the
// matcher's own; callers must not mutate it.
func (m *Matcher) Subjects() []Subject { return m.known }

// Options reports the (defaulted) options the matcher was built with.
func (m *Matcher) Options() Options { return m.opts }
