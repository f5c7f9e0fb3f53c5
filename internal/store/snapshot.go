package store

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"darklight/internal/activity"
	"darklight/internal/attribution"
	"darklight/internal/features"
	"darklight/internal/forum"
)

// Index is one immutable generation of the attribution state: the corpus
// it was built from, the subjects derived from it, the fully-built
// matcher, and the journal position already folded in. A Store persists
// and reloads it; Replay derives the next generation from it.
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
	// Matcher is the built (incremental) index over Subjects.
	Matcher *attribution.Matcher
	// Digest is the hex SHA-256 of the canonical corpus JSONL.
	Digest string
}

// Section names, in file order. A snapshot holds what a load cannot
// recompute — corpus, subjects, each subject's extraction — and nothing it
// derives from those (corpus counters, the vocabulary cut and its IDF
// weights, forward and inverted index, dense blocks):
//
//	options   the matcher options, JSON
//	corpus    the dataset, field by field
//	subjects  name, text, timestamps and activity profile of each subject
//	grams     the dictionary: the distinct word gram ids, then the distinct
//	          char gram ids, each list ascending, 8 bytes a gram
//	docs      each subject's extraction with grams as dictionary numbers:
//	          per family a uvarint entry count, then per entry the uvarint
//	          step from the previous number (the first from -1: never 0)
//	          and the uvarint count; then three totals, 42 frequencies
//
// Decoding docs sums each gram's corpus and document frequency into the
// dictionary's own array — all a VocabBuilder counts, in the form it counts
// in — so Load hands attribution.NewMatcherFromState what a Fold ends in:
// counters to cut the vocabulary from and documents to index.
const (
	secOptions  = "options"
	secCorpus   = "corpus"
	secSubjects = "subjects"
	secGrams    = "grams"
	secDocs     = "docs"
)

var sectionNames = []string{secOptions, secCorpus, secSubjects, secGrams, secDocs}

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
	optsJSON, err := json.Marshal(st.Opts)
	if err != nil {
		return err
	}
	digest, err := hex.DecodeString(idx.Digest)
	if err != nil || len(digest) != digestLen {
		return fmt.Errorf("index carries no corpus digest (%q)", idx.Digest)
	}
	h := header{IndexVersion: idx.Version, LastSeq: idx.LastSeq}
	copy(h.CorpusDigest[:], digest)

	w := newWriter(out)
	w.header(h, len(sectionNames))

	w.begin(secOptions)
	w.raw(optsJSON)
	w.end()

	w.begin(secCorpus)
	if err := writeCorpus(w, idx.Dataset); err != nil {
		return err
	}
	w.end()

	w.begin(secSubjects)
	w.u32(uint32(len(idx.Subjects)))
	for i := range idx.Subjects {
		s := &idx.Subjects[i]
		w.str(s.Name)
		w.str(s.Text)
		w.u32(uint32(len(s.Timestamps)))
		for _, ts := range s.Timestamps {
			w.i64(ts.UnixNano())
		}
		if p := s.Activity; p != nil {
			w.u8(1)
			for _, b := range p.Bins {
				w.f64(b)
			}
			w.i64(int64(p.Samples))
			w.i64(int64(p.ActiveBins))
		} else {
			w.u8(0)
		}
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

	words, chars := features.IndexGrams(st.Stats.Words), features.IndexGrams(st.Stats.Chars)
	w.begin(secDocs)
	entries := 0
	for _, d := range st.Docs {
		entries += len(d.WordGrams) + len(d.CharGrams)
	}
	w.u32(uint32(len(st.Docs)))
	w.u64(uint64(entries))
	for _, d := range st.Docs {
		if err := writeEntries(w, d.WordGrams, words); err != nil {
			return err
		}
		if err := writeEntries(w, d.CharGrams, chars); err != nil {
			return err
		}
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

// writeEntries writes one id-sorted gram list of a document as dictionary
// numbers.
func writeEntries(w *writer, es []features.GramEntry, dict features.GramIndex) error {
	w.uvarint(uint64(len(es)))
	prev := int64(-1)
	for _, e := range es {
		num, ok := dict.Number(e.ID)
		if !ok || int64(num) <= prev {
			return fmt.Errorf("document gram %d is not in the corpus counters, or not in ascending order", e.ID)
		}
		w.uvarint(uint64(int64(num) - prev))
		w.uvarint(uint64(e.Count))
		prev = int64(num)
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

	var st attribution.IndexState
	if err := json.Unmarshal(byName[secOptions], &st.Opts); err != nil {
		return nil, corrupt(secOptions, "bad options JSON: %v", err)
	}
	ds, err := readCorpus(byName[secCorpus])
	if err != nil {
		return nil, err
	}

	sr := &reader{b: byName[secSubjects], text: string(byName[secSubjects])}
	subjects := make([]attribution.Subject, sr.lengthBound(13))
	for i := range subjects {
		s := &subjects[i]
		s.Name = sr.str()
		s.Text = sr.str()
		if nts := sr.lengthBound(8); nts > 0 {
			s.Timestamps = make([]time.Time, nts)
			for j := range s.Timestamps {
				s.Timestamps[j] = time.Unix(0, sr.i64()).UTC()
			}
		}
		if sr.u8() != 0 {
			p := &activity.Profile{}
			for j := range p.Bins {
				p.Bins[j] = sr.f64()
			}
			p.Samples = int(sr.i64())
			p.ActiveBins = int(sr.i64())
			s.Activity = p
		}
	}
	if !sr.done() {
		return nil, corrupt(secSubjects, "malformed payload")
	}

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

	// One block of documents and one of entries, however many grams: a load
	// allocates by the subject, not by the gram.
	dr := &reader{b: byName[secDocs]}
	docs := make([]features.SortedDoc, dr.lengthBound(2+3+8*features.NumFreqFeatures))
	entries := dr.u64()
	if dr.fail || entries > uint64(len(dr.b))/2 {
		return nil, corrupt(secDocs, "implausible document or entry count")
	}
	arena := make([]features.GramEntry, entries)
	st.Docs = make([]*features.SortedDoc, len(docs))
	st.Stats.Config, st.Stats.NumDocs = st.Opts.Reduction, len(docs)
	for i := range docs {
		d := &docs[i]
		var reason string
		if d.WordGrams, arena, reason = readEntries(dr, arena, dict[0]); reason == "" {
			d.CharGrams, arena, reason = readEntries(dr, arena, dict[1])
		}
		if reason != "" {
			return nil, corrupt(secDocs, "document %d: %s", i, reason)
		}
		d.WordTotal, d.CharTotal, d.TotalChars = int(dr.uvarint()), int(dr.uvarint()), int(dr.uvarint())
		for j := range d.Freq {
			d.Freq[j] = dr.f64()
			if d.Freq[j] > 0 {
				st.Stats.FreqSeen[j]++
			}
		}
		st.Docs[i] = d
	}
	if !dr.done() || len(arena) != 0 {
		return nil, corrupt(secDocs, "malformed payload")
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
		Version:  h.IndexVersion,
		LastSeq:  h.LastSeq,
		Dataset:  ds,
		Subjects: subjects,
		Matcher:  matcher,
		Digest:   hex.EncodeToString(h.CorpusDigest[:]),
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

// readEntries decodes one gram list of a document into the front of arena,
// adding it to the dictionary's counters, and returns the list, the rest
// of the arena and, when the list is malformed, why.
func readEntries(r *reader, arena []features.GramEntry, dict []features.GramCount) (es, rest []features.GramEntry, reason string) {
	n := r.uvarint()
	if n > uint64(len(arena)) {
		return nil, nil, "more entries than the section declares"
	}
	es, rest = arena[:n:n], arena[n:]
	next := uint64(0) // the smallest number the entry may carry
	for j := range es {
		step, count := r.uvarint(), r.uvarint()
		switch {
		case r.fail:
			return nil, nil, "entry list cut short, or a varint past 64 bits"
		case step == 0:
			return nil, nil, "repeated gram (zero step)"
		case step > uint64(len(dict)) || next+step-1 >= uint64(len(dict)):
			return nil, nil, fmt.Sprintf("gram number outside the %d-gram dictionary", len(dict))
		case count == 0 || count > math.MaxInt32:
			return nil, nil, fmt.Sprintf("gram count %d", count)
		}
		g := &dict[next+step-1]
		next += step
		if count > uint64(math.MaxInt32-g.Freq) {
			return nil, nil, fmt.Sprintf("gram %d counted more than %d times over the corpus", g.ID, math.MaxInt32)
		}
		es[j] = features.GramEntry{ID: g.ID, Count: int32(count)}
		g.Freq += int32(count)
		g.DF++
	}
	return es, rest, ""
}
