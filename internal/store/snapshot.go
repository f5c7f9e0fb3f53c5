package store

import (
	"encoding/json"
	"fmt"

	"darklight/internal/attribution"
	"darklight/internal/features"
	"darklight/internal/forum"
)

// Index is one immutable generation of the attribution state: the corpus
// it was built from, the subjects derived from it and the options they were
// derived with, the fully-built matcher, and the journal position already
// folded in. A Store persists and reloads it; Replay derives the next
// generation from it.
type Index struct {
	// Version is the snapshot generation, bumped on every Save.
	Version uint64
	// LastSeq is the journal sequence number already folded into this
	// index; replay skips entries at or below it.
	LastSeq uint64
	// Dataset is the full corpus in canonical (name-sorted) order.
	Dataset *forum.Dataset
	// Subjects are the attribution subjects built from Dataset, aligned
	// with the matcher's known set.
	Subjects []attribution.Subject
	// SubjectOptions are the options Subjects were built with. A load
	// builds them again under these, and a replay under nothing else.
	SubjectOptions attribution.SubjectOptions
	// Matcher is the built (incremental) index over Subjects.
	Matcher *attribution.Matcher
}

// Section names, in file order. A snapshot holds what a load cannot
// recompute — the options, the corpus, each subject's extraction — and
// nothing it derives from those (the subjects, corpus counters, the
// vocabulary cut and its IDF weights, forward and inverted index, dense
// blocks):
//
//	options   the matcher options with the subject options beside them,
//	          JSON (recordedOptions)
//	corpus    the dataset, field by field
//	grams     the dictionary: the distinct word gram ids, then the distinct
//	          char gram ids, each list ascending, 8 bytes a gram
//	docs      each subject's extraction with grams as dictionary numbers:
//	          per family a uvarint entry count, then per entry the uvarint
//	          step from the previous number (the first from -1: never 0)
//	          and the uvarint count — the packed lists a NumberedDoc holds,
//	          byte for byte; then three totals, 42 frequencies
//
// Save copies each document's lists as they are. Load builds the subjects
// from the corpus under the recorded options through BuildSubjects, the one
// place subjects come from; walks docs once, checking every entry and
// summing each gram's corpus and document frequency into the dictionary's
// own array — all a VocabBuilder counts, in the form it counts in — and
// copies the lists out of the file's buffer, so it hands
// attribution.NewMatcherFromState what a Fold ends in: counters to cut the
// vocabulary from and documents to index, and nothing of the file.
const (
	secOptions = "options"
	secCorpus  = "corpus"
	secGrams   = "grams"
	secDocs    = "docs"
)

var sectionNames = []string{secOptions, secCorpus, secGrams, secDocs}

// recordedOptions is the options section: the matcher options as given, and
// the subject options beside them.
type recordedOptions struct {
	attribution.Options
	Subjects attribution.SubjectOptions
}

// writeIndex streams idx to out in the framed snapshot format.
func writeIndex(out sink, idx *Index) error {
	st, err := idx.Matcher.State()
	if err != nil {
		return err
	}
	// The two things a snapshot leaves out because Load re-derives them.
	if st.Stats.Config != st.Opts.Reduction || st.Stats.NumDocs != len(st.Docs) {
		return fmt.Errorf("matcher state disagrees with its own options (counters of another configuration)")
	}
	optsJSON, err := json.Marshal(recordedOptions{st.Opts, idx.SubjectOptions})
	if err != nil {
		return err
	}
	w := newWriter(out)
	w.header(header{IndexVersion: idx.Version, LastSeq: idx.LastSeq}, len(sectionNames))

	w.begin(secOptions)
	w.raw(optsJSON)
	w.end()

	w.begin(secCorpus)
	if err := writeCorpus(w, idx.Dataset); err != nil {
		return err
	}
	w.end()

	w.begin(secGrams)
	for _, grams := range [][]features.GramCount{st.Stats.Words, st.Stats.Chars} {
		w.u32(uint32(len(grams)))
		for _, g := range grams {
			w.u64(uint64(g.ID))
		}
	}
	w.end()

	w.begin(secDocs)
	entries := 0
	for _, d := range st.Docs {
		entries += d.Entries()
	}
	w.u32(uint32(len(st.Docs)))
	w.u64(uint64(entries))
	for _, d := range st.Docs {
		w.raw(d.Packed) // the lists as held: the matcher checked or packed them
		w.uvarint(uint64(d.WordTotal))
		w.uvarint(uint64(d.CharTotal))
		w.uvarint(uint64(d.TotalChars))
		for _, f := range d.Freq {
			w.f64(f)
		}
	}
	w.end()
	return w.err
}

// writeCorpus writes the dataset as it stands in memory. A time keeps its
// zone through MarshalBinary, as it does through the canonical JSONL.
func writeCorpus(w *writer, ds *forum.Dataset) error {
	w.str(ds.Name)
	w.str(ds.Platform.String())
	w.u32(uint32(len(ds.Aliases)))
	w.u32(uint32(ds.TotalMessages()))
	for i := range ds.Aliases {
		a := &ds.Aliases[i]
		w.str(a.Name)
		w.u32(uint32(len(a.Messages)))
		for j := range a.Messages {
			m := &a.Messages[j]
			for _, s := range [...]string{m.ID, m.Author, m.Board, m.Thread, m.Body, m.Quoted} {
				w.str(s)
			}
			at, err := m.PostedAt.MarshalBinary()
			if err != nil {
				return fmt.Errorf("message %s: %w", m.ID, err)
			}
			w.blob(at)
		}
	}
	return nil
}

// decodeIndex parses and verifies a snapshot and runs the index pass over
// what it holds. Every structural failure is a *CorruptError naming the
// offending section; a snapshot of another format is a *VersionError.
func decodeIndex(raw []byte) (*Index, error) {
	h, byName, err := decodeSnapshot(raw)
	if err != nil {
		return nil, err
	}
	for _, name := range sectionNames {
		if _, ok := byName[name]; !ok {
			return nil, corrupt(name, "section missing")
		}
	}

	var opts recordedOptions
	if err := json.Unmarshal(byName[secOptions], &opts); err != nil {
		return nil, corrupt(secOptions, "bad options JSON: %v", err)
	}
	ds, err := readCorpus(byName[secCorpus])
	if err != nil {
		return nil, err
	}
	subjects, err := attribution.BuildSubjects(ds, opts.Subjects)
	if err != nil {
		return nil, corrupt(secCorpus, "subjects: %v", err)
	}
	st := attribution.IndexState{Opts: opts.Options}

	gr := &reader{b: byName[secGrams]}
	dict := [2][]features.GramCount{}
	for f := range dict {
		dict[f] = make([]features.GramCount, gr.lengthBound(8))
		for i := range dict[f] {
			dict[f][i].ID = features.GramID(gr.u64())
			if i > 0 && dict[f][i].ID <= dict[f][i-1].ID {
				return nil, corrupt(secGrams, "gram ids not strictly ascending at entry %d", i)
			}
		}
	}
	if !gr.done() {
		return nil, corrupt(secGrams, "malformed payload")
	}

	// One block of documents and one copy of their lists, however many
	// grams: a load allocates by the subject, not by the gram.
	dr := &reader{b: byName[secDocs]}
	docs := make([]features.NumberedDoc, dr.lengthBound(2+3+8*features.NumFreqFeatures))
	declared, entries := dr.u64(), uint64(0)
	st.Docs = make([]*features.NumberedDoc, len(docs))
	st.Stats.Config, st.Stats.NumDocs = st.Opts.Reduction, len(docs)
	packed := 0
	// A read past the payload stops the walk: the lists are framed from where
	// the reader stands.
	for i := 0; i < len(docs) && !dr.fail; i++ {
		d := &docs[i]
		start := dr.off
		for f := range dict {
			n, err := features.CheckPacked(dr.b[dr.off:], dict[f], true)
			if err != nil {
				return nil, corrupt(secDocs, "document %d: %v", i, err)
			}
			if dr.bytes(n); f == 0 {
				d.CharsAt = n
			}
		}
		d.Packed = dr.b[start:dr.off:dr.off]
		packed += len(d.Packed)
		entries += uint64(d.Entries())
		d.WordTotal, d.CharTotal, d.TotalChars = int(dr.uvarint()), int(dr.uvarint()), int(dr.uvarint())
		for j := range d.Freq {
			d.Freq[j] = dr.f64()
			if d.Freq[j] > 0 {
				st.Stats.FreqSeen[j]++
			}
		}
		st.Docs[i] = d
	}
	if !dr.done() {
		return nil, corrupt(secDocs, "malformed payload")
	}
	if entries != declared {
		return nil, corrupt(secDocs, "%d entries where the section declares %d", entries, declared)
	}
	if len(docs) != len(subjects) {
		return nil, corrupt(secDocs, "%d documents for the corpus's %d aliases", len(docs), len(subjects))
	}
	// The lists leave the file's buffer for one array of their own: the
	// index keeps nothing of the file.
	arena := make([]byte, 0, packed)
	for i := range docs {
		start := len(arena)
		arena = append(arena, docs[i].Packed...)
		docs[i].Packed = arena[start:len(arena):len(arena)]
	}
	for f := range dict {
		for i := range dict[f] {
			if dict[f][i].DF == 0 {
				return nil, corrupt(secGrams, "gram %d is in no document", dict[f][i].ID)
			}
		}
	}
	st.Stats.Words, st.Stats.Chars = dict[0], dict[1]

	matcher, err := attribution.NewMatcherFromState(subjects, st)
	if err != nil {
		return nil, corrupt("index", "state rejected: %v", err)
	}
	return &Index{
		Version:        h.IndexVersion,
		LastSeq:        h.LastSeq,
		Dataset:        ds,
		Subjects:       subjects,
		SubjectOptions: opts.Subjects,
		Matcher:        matcher,
	}, nil
}

// readCorpus decodes the corpus section. Every string is a substring of one
// copy of the payload and every message sits in one block.
func readCorpus(payload []byte) (*forum.Dataset, error) {
	r := &reader{b: payload, text: string(payload)}
	name, platName := r.str(), r.str()
	aliases := make([]forum.Alias, r.lengthBound(8))
	arena := make([]forum.Message, r.lengthBound(7*4))
	if r.fail {
		return nil, corrupt(secCorpus, "malformed payload")
	}
	platform, err := forum.ParsePlatform(platName)
	if err != nil {
		return nil, corrupt(secCorpus, "unknown platform %q", platName)
	}
	for i := range aliases {
		a := &aliases[i]
		a.Name, a.Platform = r.str(), platform
		n := int(r.u32())
		if n > len(arena) {
			return nil, corrupt(secCorpus, "alias %d: more messages than the section declares", i)
		}
		if n > 0 {
			a.Messages, arena = arena[:n:n], arena[n:]
		}
		for j := range a.Messages {
			m := &a.Messages[j]
			for _, s := range [...]*string{&m.ID, &m.Author, &m.Board, &m.Thread, &m.Body, &m.Quoted} {
				*s = r.str()
			}
			if err := m.PostedAt.UnmarshalBinary(r.blob()); err != nil {
				return nil, corrupt(secCorpus, "alias %d message %d: post time: %v", i, j, err)
			}
		}
	}
	if !r.done() || len(arena) != 0 {
		return nil, corrupt(secCorpus, "malformed payload")
	}
	ds := forum.NewDataset(name, platform)
	ds.Aliases = aliases
	return ds, nil
}
