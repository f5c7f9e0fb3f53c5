package features

import (
	"cmp"
	"fmt"
	"slices"

	"darklight/internal/sparse"
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
	b := NewVocabBuilder(st.Config)
	b.numDocs = st.NumDocs
	b.freqSeen = st.FreqSeen
	for _, gc := range st.Words {
		b.words[gc.ID] = gramStat{freq: int(gc.Freq), df: int(gc.DF)}
	}
	for _, gc := range st.Chars {
		b.chars[gc.ID] = gramStat{freq: int(gc.Freq), df: int(gc.DF)}
	}
	return b
}

// Clone returns an independent copy of the builder: mutations of one never
// affect the other. Used by incremental index maintenance to derive the
// next corpus state while the current one keeps serving.
func (b *VocabBuilder) Clone() *VocabBuilder {
	c := &VocabBuilder{
		cfg:      b.cfg,
		words:    make(map[GramID]gramStat, len(b.words)),
		chars:    make(map[GramID]gramStat, len(b.chars)),
		numDocs:  b.numDocs,
		freqSeen: b.freqSeen,
	}
	for g, s := range b.words {
		c.words[g] = s
	}
	for g, s := range b.chars {
		c.chars[g] = s
	}
	return c
}

// AddSorted is Add for a pre-sorted document. Counter-for-counter
// equivalent to Add(d) on the Doc the SortedDoc came from.
func (b *VocabBuilder) AddSorted(d *SortedDoc) {
	b.numDocs++
	for _, e := range d.WordGrams {
		s := b.words[e.ID]
		s.freq += int(e.Count)
		s.df++
		b.words[e.ID] = s
	}
	for _, e := range d.CharGrams {
		s := b.chars[e.ID]
		s.freq += int(e.Count)
		s.df++
		b.chars[e.ID] = s
	}
	for i, f := range d.Freq {
		if f > 0 {
			b.freqSeen[i]++
		}
	}
}

// RemoveSorted subtracts a previously added document, the exact inverse of
// AddSorted: after Remove(d) the counters equal a builder that never saw
// d. Grams whose counters reach zero are deleted so the builder's state
// (and therefore topN's candidate set) is identical to one that never
// counted them.
func (b *VocabBuilder) RemoveSorted(d *SortedDoc) {
	b.numDocs--
	for _, e := range d.WordGrams {
		s := b.words[e.ID]
		s.freq -= int(e.Count)
		s.df--
		if s.freq == 0 && s.df == 0 {
			delete(b.words, e.ID)
		} else {
			b.words[e.ID] = s
		}
	}
	for _, e := range d.CharGrams {
		s := b.chars[e.ID]
		s.freq -= int(e.Count)
		s.df--
		if s.freq == 0 && s.df == 0 {
			delete(b.chars, e.ID)
		} else {
			b.chars[e.ID] = s
		}
	}
	for i, f := range d.Freq {
		if f > 0 {
			b.freqSeen[i]--
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
		Words:   make([]GramID, len(v.wordIndex)),
		WordIDF: slices.Clone(v.wordIDF),
		Chars:   make([]GramID, len(v.charIndex)),
		CharIDF: slices.Clone(v.charIDF),
	}
	for g, i := range v.wordIndex {
		st.Words[i] = g
	}
	base := uint32(len(v.wordIndex))
	for g, i := range v.charIndex {
		st.Chars[i-base] = g
	}
	return st
}

// NewVocabularyFromState reconstructs a Vocabulary from a snapshot.
func NewVocabularyFromState(st VocabState) (*Vocabulary, error) {
	if len(st.Words) != len(st.WordIDF) || len(st.Chars) != len(st.CharIDF) {
		return nil, fmt.Errorf("features: vocab state: %d word grams / %d word idf, %d char grams / %d char idf",
			len(st.Words), len(st.WordIDF), len(st.Chars), len(st.CharIDF))
	}
	v := &Vocabulary{
		cfg:       st.Config,
		wordIndex: make(map[GramID]uint32, len(st.Words)),
		charIndex: make(map[GramID]uint32, len(st.Chars)),
		wordIDF:   slices.Clone(st.WordIDF),
		charIDF:   slices.Clone(st.CharIDF),
		numDocs:   st.NumDocs,
	}
	for i, g := range st.Words {
		if _, dup := v.wordIndex[g]; dup {
			return nil, fmt.Errorf("features: vocab state: duplicate word gram %d", g)
		}
		v.wordIndex[g] = uint32(i)
	}
	base := uint32(len(st.Words))
	for i, g := range st.Chars {
		if _, dup := v.charIndex[g]; dup {
			return nil, fmt.Errorf("features: vocab state: duplicate char gram %d", g)
		}
		v.charIndex[g] = base + uint32(i)
	}
	return v, nil
}

// VectorizeGramsSorted is VectorizeGrams for a pre-sorted document. The
// per-entry arithmetic is identical, so the resulting vector is
// bit-identical to VectorizeGrams on the originating Doc.
func (v *Vocabulary) VectorizeGramsSorted(d *SortedDoc) sparse.Vector {
	est := len(d.WordGrams) + len(d.CharGrams)
	vec := sparse.Vector{
		Idx: make([]uint32, 0, est),
		Val: make([]float64, 0, est),
	}
	wordDen := float64(max(d.WordTotal, 1))
	for _, e := range d.WordGrams {
		if i, ok := v.wordIndex[e.ID]; ok {
			vec.Idx = append(vec.Idx, i)
			vec.Val = append(vec.Val, float64(e.Count)/wordDen*v.wordIDF[i])
		}
	}
	charDen := float64(max(d.CharTotal, 1))
	base := uint32(len(v.wordIndex))
	for _, e := range d.CharGrams {
		if i, ok := v.charIndex[e.ID]; ok {
			vec.Idx = append(vec.Idx, i)
			vec.Val = append(vec.Val, float64(e.Count)/charDen*v.charIDF[i-base])
		}
	}
	vec.Sort()
	return vec
}
