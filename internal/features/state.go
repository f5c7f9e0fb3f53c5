package features

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
)

// This file is the persistence and incremental-maintenance surface of the
// vocabulary layer. A VocabBuilder's counters and a frozen Vocabulary's
// index tables are both plain integer/float state, so they round-trip
// through value types the store can serialise; and because Add/Merge are
// plain sums, documents can also be *subtracted*, which is what lets a
// live index fold an updated alias in without rebuilding from scratch.

// GramCount is one gram's corpus counters in a BuilderState, emitted in
// ascending gram-id order so serialisation is deterministic.
type GramCount struct {
	ID   GramID
	Freq int64
	DF   int64
}

// BuilderState is the full counter set of a VocabBuilder as value types.
// NewVocabBuilderFromState(b.State()) reconstructs a builder that Builds
// the bit-identical Vocabulary.
type BuilderState struct {
	Config   Config
	NumDocs  int
	FreqSeen [NumFreqFeatures]int
	Words    []GramCount // ascending gram id
	Chars    []GramCount // ascending gram id
}

// State snapshots the builder's counters.
func (b *VocabBuilder) State() BuilderState {
	return BuilderState{
		Config:   b.cfg,
		NumDocs:  b.numDocs,
		FreqSeen: b.freqSeen,
		Words:    gramCounts(b.words),
		Chars:    gramCounts(b.chars),
	}
}

func gramCounts(stats map[GramID]gramStat) []GramCount {
	out := make([]GramCount, 0, len(stats))
	for g, s := range stats {
		out = append(out, GramCount{ID: g, Freq: int64(s.freq), DF: int64(s.df)})
	}
	slices.SortFunc(out, func(a, b GramCount) int { return cmp.Compare(a.ID, b.ID) })
	return out
}

// NewVocabBuilderFromState reconstructs a builder from a snapshot.
func NewVocabBuilderFromState(st BuilderState) *VocabBuilder {
	b := &VocabBuilder{
		cfg:      st.Config,
		words:    make(map[GramID]gramStat, len(st.Words)),
		chars:    make(map[GramID]gramStat, len(st.Chars)),
		numDocs:  st.NumDocs,
		freqSeen: st.FreqSeen,
	}
	for _, gc := range st.Words {
		b.words[gc.ID] = gramStat{freq: int(gc.Freq), df: int(gc.DF)}
	}
	for _, gc := range st.Chars {
		b.chars[gc.ID] = gramStat{freq: int(gc.Freq), df: int(gc.DF)}
	}
	return b
}

// GramIndex numbers grams by their position in one of a BuilderState's
// ascending gram lists — the form a snapshot stores document and
// vocabulary entries in — through the offset table a Vocabulary section
// uses, so numbering an entry is a slot lookup and a step or two, not a
// search.
type GramIndex struct {
	grams []GramCount
	skip  []uint32
	shift uint
}

// IndexGrams indexes grams, which must ascend by id.
func IndexGrams(grams []GramCount) GramIndex {
	x := GramIndex{grams: grams}
	x.skip, x.shift = skipTable(grams, func(g *GramCount) GramID { return g.ID })
	return x
}

// Number returns id's position in the indexed list, false when it is not
// there.
func (x GramIndex) Number(id GramID) (uint32, bool) {
	for j := x.skip[id>>x.shift]; int(j) < len(x.grams) && x.grams[j].ID <= id; j++ {
		if x.grams[j].ID == id {
			return j, true
		}
	}
	return 0, false
}

// Clone returns an independent copy of the builder: mutations of one never
// affect the other. Used by incremental index maintenance to derive the
// next corpus state while the current one keeps serving.
func (b *VocabBuilder) Clone() *VocabBuilder {
	c := *b
	c.words, c.chars = maps.Clone(b.words), maps.Clone(b.chars)
	return &c
}

// AddSorted is Add for a pre-sorted document. Counter-for-counter
// equivalent to Add(d) on the Doc the SortedDoc came from.
func (b *VocabBuilder) AddSorted(d *SortedDoc) { b.fold(d, 1) }

// RemoveSorted subtracts a previously added document, the exact inverse of
// AddSorted: after Remove(d) the counters equal a builder that never saw
// d. Grams whose counters reach zero are deleted so the builder's state
// (and therefore topN's candidate set) is identical to one that never
// counted them.
func (b *VocabBuilder) RemoveSorted(d *SortedDoc) { b.fold(d, -1) }

// fold adds d's counts to the corpus counters sign (+1 or -1) times.
func (b *VocabBuilder) fold(d *SortedDoc, sign int) {
	b.numDocs += sign
	foldEntries(b.words, d.WordGrams, sign)
	foldEntries(b.chars, d.CharGrams, sign)
	for i, f := range d.Freq {
		if f > 0 {
			b.freqSeen[i] += sign
		}
	}
}

func foldEntries(stats map[GramID]gramStat, es []GramEntry, sign int) {
	for _, e := range es {
		s := stats[e.ID]
		s.freq += sign * int(e.Count)
		s.df += sign
		if s == (gramStat{}) {
			delete(stats, e.ID)
		} else {
			stats[e.ID] = s
		}
	}
}

// VocabState is a frozen Vocabulary as value types: the gram ids in index
// order plus their IDF weights. NewVocabularyFromState(v.State())
// reconstructs a Vocabulary whose Vectorize output is bit-identical.
type VocabState struct {
	Config  Config
	NumDocs int
	Words   []GramID // index order (descending corpus frequency)
	WordIDF []float64
	Chars   []GramID
	CharIDF []float64
}

// State snapshots the vocabulary's index tables.
func (v *Vocabulary) State() VocabState {
	st := VocabState{
		Config:  v.cfg,
		NumDocs: v.numDocs,
		Words:   make([]GramID, len(v.words.byID)),
		WordIDF: make([]float64, len(v.words.byID)),
		Chars:   make([]GramID, len(v.chars.byID)),
		CharIDF: make([]float64, len(v.chars.byID)),
	}
	for _, e := range v.words.byID {
		st.Words[e.index], st.WordIDF[e.index] = e.id, e.idf
	}
	base := uint32(len(v.words.byID))
	for _, e := range v.chars.byID {
		st.Chars[e.index-base], st.CharIDF[e.index-base] = e.id, e.idf
	}
	return st
}

// NewVocabularyFromState reconstructs a Vocabulary from a snapshot.
func NewVocabularyFromState(st VocabState) (*Vocabulary, error) {
	if len(st.Words) != len(st.WordIDF) || len(st.Chars) != len(st.CharIDF) {
		return nil, fmt.Errorf("features: vocab state: %d word grams / %d word idf, %d char grams / %d char idf",
			len(st.Words), len(st.WordIDF), len(st.Chars), len(st.CharIDF))
	}
	words, err := sectionFromState("word", st.Words, st.WordIDF, 0)
	if err != nil {
		return nil, err
	}
	chars, err := sectionFromState("char", st.Chars, st.CharIDF, uint32(len(st.Words)))
	if err != nil {
		return nil, err
	}
	return &Vocabulary{cfg: st.Config, words: words, chars: chars, numDocs: st.NumDocs}, nil
}

// sectionFromState rebuilds one vocabulary section from its index-ordered
// gram ids and IDF weights, rejecting a gram listed twice.
func sectionFromState(kind string, grams []GramID, idfs []float64, base uint32) (section, error) {
	es := make([]cvEntry, len(grams))
	for i, g := range grams {
		es[i] = cvEntry{id: g, index: base + uint32(i), idf: idfs[i]}
	}
	sec := newSection(es)
	for i := 1; i < len(es); i++ {
		if es[i].id == es[i-1].id {
			return section{}, fmt.Errorf("features: vocab state: duplicate %s gram %d", kind, es[i].id)
		}
	}
	return sec, nil
}
