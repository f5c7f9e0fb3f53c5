package store

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sort"

	"darklight/internal/attribution"
	"darklight/internal/forum"
)

// BuildIndex builds the first index generation from a corpus: the
// dataset is canonicalised (name-sorted), subjects are derived under
// subjOpts, which the index records, and the matcher is built incrementally
// so the result can be snapshotted and folded. The dataset is sorted in
// place and retained by the index.
func BuildIndex(ctx context.Context, ds *forum.Dataset, opts attribution.Options, subjOpts attribution.SubjectOptions) (*Index, error) {
	ds.SortByName()
	subjects, err := attribution.BuildSubjects(ds, subjOpts)
	if err != nil {
		return nil, err
	}
	opts.Incremental = true
	m, err := attribution.NewMatcherContext(ctx, subjects, opts)
	if err != nil {
		return nil, err
	}
	return &Index{Version: 1, Dataset: ds, Subjects: m.Subjects(), SubjectOptions: subjOpts, Matcher: m}, nil
}

// ApplyThreads folds scraped thread records into a copy of the dataset:
// messages are grouped by author, known aliases gain their new messages,
// unseen authors become new aliases. The input dataset is never mutated
// — changed aliases get freshly allocated message slices, unchanged ones
// share storage with the original. Returns the new dataset in canonical
// name-sorted order plus the sorted names of the aliases that changed.
//
// Each record's messages are taken as new to the corpus; the scraper's
// checkpoint already guarantees a completed thread is never re-scraped.
func ApplyThreads(ds *forum.Dataset, recs []forum.ThreadRecord) (*forum.Dataset, []string) {
	byAuthor := make(map[string][]forum.Message)
	var order []string
	for _, rec := range recs {
		for _, msg := range rec.Messages {
			if msg.Author == "" {
				continue
			}
			if _, ok := byAuthor[msg.Author]; !ok {
				order = append(order, msg.Author)
			}
			byAuthor[msg.Author] = append(byAuthor[msg.Author], msg)
		}
	}
	out := forum.NewDataset(ds.Name, ds.Platform)
	out.Aliases = slices.Clone(ds.Aliases)
	idx := make(map[string]int, len(out.Aliases))
	for i := range out.Aliases {
		idx[out.Aliases[i].Name] = i
	}
	changed := make([]string, 0, len(order))
	for _, name := range order {
		msgs := byAuthor[name]
		if i, ok := idx[name]; ok {
			a := &out.Aliases[i]
			// Clone before appending: the copied header still points at the
			// original's backing array.
			a.Messages = append(slices.Clone(a.Messages), msgs...)
		} else {
			out.Add(forum.Alias{Name: name, Messages: msgs})
		}
		changed = append(changed, name)
	}
	out.SortByName()
	sort.Strings(changed)
	return out, changed
}

// Replay folds journal entries into the index, producing the next
// generation. Entries at or below the index's LastSeq are skipped, so
// replaying the whole journal after a crash between Save and
// CompactJournal is idempotent. Only the changed aliases are re-derived
// and folded; the result is bit-identical to a full rebuild over the
// merged corpus. idx itself is never mutated and keeps serving while the
// fold runs; with no new entries it is returned unchanged.
//
// subjOpts must be the options the index records (Index.SubjectOptions), as
// JSON encodes them: a load derives every subject under those, so subjects
// replayed under others would come back different from the generation that
// served them. Other options are an error before anything is folded.
func Replay(ctx context.Context, idx *Index, entries []JournalEntry, subjOpts attribution.SubjectOptions) (*Index, error) {
	given, gerr := json.Marshal(subjOpts)
	recorded, rerr := json.Marshal(idx.SubjectOptions)
	if err := errors.Join(gerr, rerr); err != nil {
		return nil, fmt.Errorf("store: replay: %w", err)
	}
	if !bytes.Equal(given, recorded) {
		return nil, fmt.Errorf("store: replay: subject options %s, the index was built with %s", given, recorded)
	}
	lastSeq := idx.LastSeq
	var recs []forum.ThreadRecord
	for _, e := range entries {
		if e.Seq <= lastSeq {
			continue
		}
		lastSeq = e.Seq
		recs = append(recs, e.Thread)
	}
	if len(recs) == 0 {
		return idx, nil
	}
	ds, changed := ApplyThreads(idx.Dataset, recs)

	// Subject construction is strictly per-alias, so building the changed
	// aliases from a mini-dataset yields exactly the subjects a full
	// BuildSubjects over the merged corpus would for those names.
	mini := forum.NewDataset(ds.Name, ds.Platform)
	for _, name := range changed {
		a, err := ds.Find(name)
		if err != nil {
			return nil, fmt.Errorf("store: replay: %w", err)
		}
		mini.Add(*a)
	}
	subjects, err := attribution.BuildSubjects(mini, subjOpts)
	if err != nil {
		return nil, err
	}
	m, err := idx.Matcher.Fold(ctx, subjects)
	if err != nil {
		return nil, err
	}
	return &Index{
		Version:        idx.Version + 1,
		LastSeq:        lastSeq,
		Dataset:        ds,
		Subjects:       m.Subjects(),
		SubjectOptions: idx.SubjectOptions,
		Matcher:        m,
	}, nil
}
