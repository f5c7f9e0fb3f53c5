package attribution

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"

	"darklight/internal/features"
	"darklight/internal/prefilter"
)

// ErrNotIncremental is returned by State and Fold on a matcher built
// without Options.Incremental: it dropped the corpus counters and cached
// extractions those operations need.
var ErrNotIncremental = errors.New("attribution: matcher was not built with Options.Incremental")

// IndexState is everything the index pass computed, as value types: the
// frozen vocabulary and the corpus counters it was cut from, each known
// subject's cached extraction, the dense blocks, the forward gram index
// (from which the inverted posting lists are reconstructed), the
// pre-filter contribution caps, and any LSH operating points already
// built. Subjects themselves are not included — callers persist them
// alongside and pass them back to NewMatcherFromState.
//
// The state shares backing arrays with the matcher it came from; treat it
// as read-only.
type IndexState struct {
	Opts       Options
	Vocab      features.VocabState
	Stats      features.BuilderState
	Docs       []*features.SortedDoc
	Mask       []uint8
	Freqs      [][]float64
	Acts       [][]float64
	FwdIdx     [][]uint32
	FwdVal     [][]float32
	MaxContrib []float32
	LSH        []prefilter.LSHTable
}

// State snapshots the index for persistence. Only incremental matchers
// can be snapshotted.
func (m *Matcher) State() (IndexState, error) {
	if m.docs == nil {
		return IndexState{}, ErrNotIncremental
	}
	st := IndexState{
		Opts:       m.opts,
		Vocab:      m.vocab.State(),
		Stats:      m.stats.State(),
		Docs:       m.docs,
		Mask:       m.mask,
		Freqs:      m.freqs,
		Acts:       m.acts,
		FwdIdx:     m.fwdIdx,
		FwdVal:     m.fwdVal,
		MaxContrib: m.maxContrib.Values(),
	}
	// The LSH cache fills lazily per operating point queried; emit the
	// built ones in a deterministic order so the serialised form is too.
	m.lshMu.Lock()
	for _, l := range m.lshIdx {
		st.LSH = append(st.LSH, l.Table())
	}
	m.lshMu.Unlock()
	sort.Slice(st.LSH, func(a, b int) bool {
		pa, pb := st.LSH[a].Params, st.LSH[b].Params
		if pa.Bands != pb.Bands {
			return pa.Bands < pb.Bands
		}
		if pa.Rows != pb.Rows {
			return pa.Rows < pb.Rows
		}
		return pa.Seed < pb.Seed
	})
	return st, nil
}

// NewMatcherFromState reassembles a matcher from a snapshot without
// re-running either build pass — the cold-start path. known must be the
// exact subject slice the state was saved against (same order); Rank,
// Rescore, Match, and MatchAll output is bit-identical to the matcher
// State was called on.
func NewMatcherFromState(known []Subject, st IndexState) (*Matcher, error) {
	opts := st.Opts.WithDefaults()
	if err := validateOptions(opts); err != nil {
		return nil, err
	}
	n := len(known)
	if len(st.Docs) != n || len(st.Mask) != n || len(st.Freqs) != n ||
		len(st.Acts) != n || len(st.FwdIdx) != n || len(st.FwdVal) != n {
		return nil, fmt.Errorf("attribution: index state sized for %d subjects, got %d (docs %d mask %d freqs %d acts %d fwd %d/%d)",
			len(st.Mask), n, len(st.Docs), len(st.Mask), len(st.Freqs), len(st.Acts), len(st.FwdIdx), len(st.FwdVal))
	}
	vocab, err := features.NewVocabularyFromState(st.Vocab)
	if err != nil {
		return nil, err
	}
	m := &Matcher{
		opts:       opts,
		known:      known,
		vocab:      vocab,
		mask:       st.Mask,
		freqs:      st.Freqs,
		acts:       st.Acts,
		fwdIdx:     st.FwdIdx,
		fwdVal:     st.FwdVal,
		maxContrib: prefilter.MaxContribFromValues(st.MaxContrib),
	}
	if opts.Incremental {
		m.stats = features.NewVocabBuilderFromState(st.Stats)
		m.docs = st.Docs
	}

	// Pre-install persisted LSH operating points; further points still
	// build lazily on first use.
	m.lshIdx = make(map[prefilter.LSHParams]*prefilter.LSH, len(st.LSH))
	for _, t := range st.LSH {
		m.lshIdx[t.Params.WithDefaults()] = prefilter.LSHFromTable(t)
	}

	// The inverted index is not persisted: finish re-derives it from the
	// forward lists with the inversion every build uses.
	if err := m.finish(); err != nil {
		return nil, err
	}
	return m, nil
}

// Fold returns a new matcher with the changed subjects applied — updated
// in place when the name is already known, appended otherwise — without
// re-extracting or re-counting the unchanged corpus. The old counters are
// subtracted and the new ones added (plain integer sums, so the folded
// counters equal a from-scratch count of the new corpus), the vocabulary
// is re-cut, and only the index pass re-runs, from cached extractions.
// The result is bit-identical to a full rebuild over the updated subject
// list; m itself is never mutated and keeps serving.
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
		sd := features.Extract(c.Text, m.opts.Reduction).Sorted()
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
	return newMatcherFromDocs(ctx, sortedKnown, sortedDocs, stats, stats.Build(), m.opts)
}

// Subjects exposes the known subjects in index order. The slice is the
// matcher's own; callers must not mutate it.
func (m *Matcher) Subjects() []Subject { return m.known }

// Options reports the (defaulted) options the matcher was built with.
func (m *Matcher) Options() Options { return m.opts }
