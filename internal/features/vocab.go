package features

import (
	"cmp"
	"math"
	"slices"

	"darklight/internal/sparse"
)

// VocabBuilder accumulates corpus-wide n-gram statistics over a stream of
// Docs, then freezes a Vocabulary: the top-N word grams and top-N char
// grams by total corpus frequency (§IV-A: "we order the n-grams by their
// frequency across the dataset [and] select the top N features").
//
// Builders shard cleanly: feed disjoint document subsets to separate
// builders and Merge them. Corpus frequency, document frequency, and the
// document count are all plain sums, so a merged builder Builds the exact
// vocabulary a single builder fed every document would — the top-N cut
// orders by (frequency desc, gram id asc), which is independent of the
// order the counts were summed in.
type VocabBuilder struct {
	cfg      Config
	words    map[GramID]gramStat
	chars    map[GramID]gramStat
	numDocs  int
	freqSeen [NumFreqFeatures]int
}

// gramStat carries both corpus-wide counters of one gram; keeping them in
// one map entry halves the hash probes of Add, the hot loop of vocabulary
// construction.
type gramStat struct {
	freq int // total occurrences across the corpus
	df   int // number of documents containing the gram
}

// NewVocabBuilder returns a builder for the given configuration.
func NewVocabBuilder(cfg Config) *VocabBuilder {
	return &VocabBuilder{
		cfg:   cfg,
		words: make(map[GramID]gramStat),
		chars: make(map[GramID]gramStat),
	}
}

// Add folds one document's counts into the corpus statistics. The doc can
// be discarded afterwards.
func (b *VocabBuilder) Add(d *Doc) {
	b.numDocs++
	for g, c := range d.WordGrams {
		s := b.words[g]
		s.freq += c
		s.df++
		b.words[g] = s
	}
	for g, c := range d.CharGrams {
		s := b.chars[g]
		s.freq += c
		s.df++
		b.chars[g] = s
	}
	for i, f := range d.Freq {
		if f > 0 {
			b.freqSeen[i]++
		}
	}
}

// Merge folds another builder's statistics into b. The other builder must
// have seen a disjoint set of documents (each document Added exactly once
// across all shards); it is left unchanged and may be discarded. Merging
// commutes with Add: shard-then-merge yields counter-for-counter the same
// builder state as a single sequential builder.
func (b *VocabBuilder) Merge(o *VocabBuilder) {
	b.numDocs += o.numDocs
	for g, os := range o.words {
		s := b.words[g]
		s.freq += os.freq
		s.df += os.df
		b.words[g] = s
	}
	for g, os := range o.chars {
		s := b.chars[g]
		s.freq += os.freq
		s.df += os.df
		b.chars[g] = s
	}
	for i := range o.freqSeen {
		b.freqSeen[i] += o.freqSeen[i]
	}
}

// NumDocs returns the number of documents added so far.
func (b *VocabBuilder) NumDocs() int { return b.numDocs }

// Build freezes the vocabulary. The builder can keep accumulating and be
// rebuilt; Build itself does not mutate the builder.
func (b *VocabBuilder) Build() *Vocabulary {
	n := float64(b.numDocs)
	words := topN(b.words, b.cfg.MaxWordGrams, 0, n)
	chars := topN(b.chars, b.cfg.MaxCharGrams, uint32(len(words)), n)
	return &Vocabulary{cfg: b.cfg, words: newSection(words), chars: newSection(chars), numDocs: b.numDocs}
}

// IDF is the smoothed inverse document frequency: ln((1+N)/(1+df)).
// Corpus-universal grams (df = N) weigh ≈ 0, which is what makes TF-IDF
// discriminate: without it the high-frequency function-word grams dominate
// every vector's norm and all users look alike (§IV-A: TF-IDF "gives more
// importance to features that are frequently used by only one user and
// less importance to popular features such as stop-words").
//
// Exported for the snapshot store, which keeps document frequencies and
// recomputes the weights a Build would: one function, so the same bits.
func IDF(n, df float64) float64 {
	return math.Log((1 + n) / (1 + df))
}

// CompareRank orders grams the way the vocabulary cut ranks them: by
// descending corpus frequency, ties by ascending gram id.
func CompareRank(a, b GramCount) int {
	return cmp.Or(cmp.Compare(b.Freq, a.Freq), cmp.Compare(a.ID, b.ID))
}

// topN selects the n highest-frequency grams, ties broken by gram id so
// vocabulary construction is deterministic regardless of how (or in how
// many shards) the counts were accumulated, and returns them in that order
// as vocabulary entries: feature index base + rank, IDF over a corpus of
// numDocs documents. Negative n keeps everything.
func topN(stats map[GramID]gramStat, n int, base uint32, numDocs float64) []cvEntry {
	// Flatten before sorting: a map probe per comparison dominates the sort
	// of a large gram universe.
	ranked := make([]GramCount, 0, len(stats))
	for g, s := range stats {
		ranked = append(ranked, GramCount{ID: g, Freq: int64(s.freq), DF: int64(s.df)})
	}
	slices.SortFunc(ranked, CompareRank)
	if n >= 0 && len(ranked) > n {
		ranked = ranked[:n]
	}
	out := make([]cvEntry, len(ranked))
	for i, r := range ranked {
		out[i] = cvEntry{id: r.ID, index: base + uint32(i), idf: IDF(numDocs, float64(r.DF))}
	}
	return out
}

// Vocabulary maps n-grams to feature indices and carries the IDF weights.
// Immutable after Build; safe for concurrent use.
//
// Index layout (dense, no gaps):
//
//	[0, W)                word n-grams, by descending corpus frequency
//	[W, W+C)              char n-grams
//	[W+C, W+C+42)         frequency features (punct, digits, specials)
//	[W+C+42, W+C+42+24)   reserved for the daily activity profile,
//	                      appended by the attribution layer
//
// Each section is one table sorted by gram id, every entry carrying its
// feature index and IDF weight — the form CandidateVocab rebuilds per
// query — so vectorizing a flattened document is a merge, never a hash
// probe.
type Vocabulary struct {
	cfg     Config
	words   section
	chars   section
	numDocs int
}

// NumWordGrams returns the size of the word-gram section.
func (v *Vocabulary) NumWordGrams() int { return len(v.words.byID) }

// NumCharGrams returns the size of the char-gram section.
func (v *Vocabulary) NumCharGrams() int { return len(v.chars.byID) }

// NumDocs returns the corpus size the vocabulary was built from.
func (v *Vocabulary) NumDocs() int { return v.numDocs }

// FreqOffset is the index of the first frequency feature.
func (v *Vocabulary) FreqOffset() uint32 {
	return uint32(len(v.words.byID) + len(v.chars.byID))
}

// ActivityOffset is the index of the first daily-activity dimension.
func (v *Vocabulary) ActivityOffset() uint32 {
	off := v.FreqOffset()
	if v.cfg.IncludeFreq {
		off += uint32(NumFreqFeatures)
	}
	return off
}

// Dims is the total dimensionality including the 24 activity slots.
func (v *Vocabulary) Dims() int { return int(v.ActivityOffset()) + 24 }

// Vectorize converts a document into a TF-IDF weighted sparse vector in
// this vocabulary's index space. Grams outside the vocabulary are ignored.
// Term frequency is the gram count normalised by the document's total gram
// count of the same family, so documents of different lengths remain
// comparable.
func (v *Vocabulary) Vectorize(d *Doc) sparse.Vector {
	vec := v.VectorizeGrams(d)
	if v.cfg.IncludeFreq {
		// Frequency indices ascend past every gram index, so appending them
		// keeps the vector sorted.
		off := v.FreqOffset()
		for i, f := range d.Freq {
			if f != 0 {
				vec.Idx = append(vec.Idx, off+uint32(i))
				vec.Val = append(vec.Val, f)
			}
		}
	}
	return vec
}

// VectorizeGrams is Vectorize restricted to the n-gram sections — the
// frequency features are omitted. The attribution layer keeps frequency
// and activity blocks separate so it can re-weight them at query time.
func (v *Vocabulary) VectorizeGrams(d *Doc) sparse.Vector {
	return v.VectorizeGramsSorted(d.Sorted())
}

// VectorizeGramsSorted is VectorizeGrams for an already flattened
// document, into a fresh vector. An empty result has empty, not nil,
// slices.
func (v *Vocabulary) VectorizeGramsSorted(d *SortedDoc) sparse.Vector {
	est := len(d.WordGrams) + len(d.CharGrams)
	vec := sparse.Vector{Idx: make([]uint32, 0, est), Val: make([]float64, 0, est)}
	var scratch sparse.Vector
	v.VectorizeGramsInto(&vec, &scratch, d)
	return vec
}

// VectorizeGramsInto is VectorizeGramsSorted into vec's own storage, with
// the index sort's second buffer taken from scratch: a caller that keeps
// both allocates nothing once they have held its largest document. The
// vocabulary itself is only read, so concurrent callers need only their own
// vec and scratch.
func (v *Vocabulary) VectorizeGramsInto(vec, scratch *sparse.Vector, d *SortedDoc) {
	vectorizeInto(vec, scratch, d, v.words, v.chars)
}
