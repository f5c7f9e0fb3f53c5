package features

import (
	"fmt"
	"math"
	"slices"

	"darklight/internal/sparse"
)

// VocabBuilder accumulates corpus-wide n-gram statistics over a stream of
// documents, then freezes a Vocabulary: the top-N word grams and top-N char
// grams by total corpus frequency (§IV-A: "we order the n-grams by their
// frequency across the dataset [and] select the top N features").
//
// The counters are, per gram family, one flat array in ascending gram id —
// what State emits, a snapshot's dictionary stores and the cut ranks — and
// no hash map anywhere. Documents wait, as extracted, in a pending batch
// and are merged a batch at a time: mergeGramLists sums the batch straight
// from their packed ids, mergeAggInto adds it to the array. A batch closes
// once it holds as many entries as the arrays, so the merging stays linear
// in what the builder was fed and a builder keeps a bounded number of
// documents alive however many pass through it. Removing a document is the same merge with its counts
// negated; a document numbered by the settled arrays first takes its ids
// from them (RemoveNumbered).
//
// A settled array is never written again — every merge makes a new one — so
// Clone shares it and State hands it out; and Settle, State, Build and Clone
// only read a builder that has nothing pending, so the one a matcher retains
// can be shared by a save and a fold.
//
// Builders shard cleanly: feed disjoint document subsets to separate
// builders and Merge them. Corpus frequency, document frequency, and the
// document count are all plain sums, so a merged builder Builds the exact
// vocabulary a single builder fed every document would — the cut orders by
// (frequency desc, gram id asc), which is independent of the order the
// counts were summed in.
//
// Counters are int32, the width that keeps a merge at 16 bytes an entry.
// What the counters cannot hold — a gram counted more than 2^31-1 times, a
// document removed that was never added — latches as the builder's error:
// Settle, Merge, State and Build report it.
type VocabBuilder struct {
	cfg     Config
	words   []GramCount
	chars   []GramCount
	numDocs int
	// pending holds the documents added or removed since the arrays were
	// settled, pendingEntries their gram entries and pendingCount the
	// occurrences those entries count.
	pending        []pendingDoc
	pendingEntries int
	pendingCount   int64
	err            error
}

// pendingDoc is one document of an open batch and the sign it counts with.
type pendingDoc struct {
	doc  *PackedDoc
	sign int32
}

// minBatch is the fewest gram entries a batch closes at: below it the merge
// into the arrays would cost more than summing the batch.
const minBatch = 1 << 16

// NewVocabBuilder returns a builder for the given configuration.
func NewVocabBuilder(cfg Config) *VocabBuilder {
	return &VocabBuilder{cfg: cfg}
}

// Add folds one document's counts into the corpus statistics. The builder
// keeps the document only until its batch closes.
func (b *VocabBuilder) Add(d *PackedDoc) { b.fold(d, 1) }

// Remove subtracts a previously added document, the exact inverse of Add:
// once settled the counters equal a builder's that never saw d, grams whose
// counters reach zero gone from the arrays with it.
func (b *VocabBuilder) Remove(d *PackedDoc) { b.fold(d, -1) }

// fold queues d to be counted sign (+1 or -1) times.
func (b *VocabBuilder) fold(d *PackedDoc, sign int32) {
	count := int64(d.WordTotal) + int64(d.CharTotal)
	// mergeGramLists sums in int32 without looking: a batch never counts
	// more occurrences than that holds.
	if b.pendingCount+count > math.MaxInt32 {
		b.settle()
	}
	b.numDocs += int(sign)
	b.pending = append(b.pending, pendingDoc{doc: d, sign: sign})
	b.pendingEntries += d.Entries()
	b.pendingCount += count
	if b.pendingEntries >= max(minBatch, len(b.words)+len(b.chars)) {
		b.settle()
	}
}

// Settle merges every pending document into the counters and returns the
// builder's error, if it has met one. Merge, State and Build settle first;
// a goroutine that fed a builder settles it so that the merge runs there.
func (b *VocabBuilder) Settle() error {
	b.settle()
	return b.err
}

func (b *VocabBuilder) settle() {
	if len(b.pending) == 0 {
		return
	}
	if b.err == nil && b.numDocs < 0 {
		b.err = fmt.Errorf("features: %d more documents removed than added", -b.numDocs)
	}
	if b.err == nil {
		var s aggBuffers
		words := s.mergeGramLists(len(b.pending), func(i int) (family, int32) {
			words, _ := b.pending[i].doc.families()
			return words, b.pending[i].sign
		})
		b.words, b.err = addCounters(b.words, words, b.numDocs)
		if b.err == nil {
			chars := s.mergeGramLists(len(b.pending), func(i int) (family, int32) {
				_, chars := b.pending[i].doc.families()
				return chars, b.pending[i].sign
			})
			b.chars, b.err = addCounters(b.chars, chars, b.numDocs)
		}
	}
	clear(b.pending) // the documents are the callers' again
	b.pending, b.pendingEntries, b.pendingCount = b.pending[:0], 0, 0
}

// addCounters returns a + b, both ascending by gram id, in a new array:
// neither input is written. Entries that sum to zero are dropped, and an
// entry no set of numDocs documents can produce is an error — see check.
func addCounters(a, b []GramCount, numDocs int) ([]GramCount, error) {
	return dropEmpty(mergeAggInto(make([]GramCount, 0, len(a)+len(b)), a, b), numDocs)
}

// dropEmpty compacts counters the caller owns: entries at zero leave, and an
// entry no set of numDocs documents can produce is an error — see check.
func dropEmpty(out []GramCount, numDocs int) ([]GramCount, error) {
	k := 0
	for _, e := range out {
		if e.Freq == 0 && e.DF == 0 {
			continue
		}
		if err := e.check(numDocs); err != nil {
			return nil, err
		}
		out[k] = e
		k++
	}
	if out = out[:k]; cap(out)-k > k/8 {
		out = slices.Clone(out) // the arrays live as long as the index does
	}
	return out, nil
}

// check reports a counter pair that is not a count over numDocs documents:
// a document frequency outside 1..numDocs, or fewer occurrences than
// documents. A removal of what was never added leaves one (negative, or
// occurrences in no document), and so does a sum past int32: the operands
// are at most 2^31-1 each, so it wraps to a negative number.
func (e GramCount) check(numDocs int) error {
	if e.DF <= 0 || int(e.DF) > numDocs || e.Freq < e.DF {
		return fmt.Errorf("features: gram %d counts %d occurrences in %d of %d documents: a document removed that was never added, or a count past %d",
			e.ID, e.Freq, e.DF, numDocs, math.MaxInt32)
	}
	return nil
}

// Merge folds another builder's statistics into b. The other builder must
// have seen a disjoint set of documents (each document Added exactly once
// across all shards); its counters are left unchanged and it may be
// discarded. Merging commutes with Add: shard-then-merge yields
// counter-for-counter the same builder state as a single sequential builder.
func (b *VocabBuilder) Merge(o *VocabBuilder) error {
	b.settle()
	if b.err == nil {
		b.err = o.Settle()
	}
	if b.err != nil {
		return b.err
	}
	b.numDocs += o.numDocs
	if b.words, b.err = addCounters(b.words, o.words, b.numDocs); b.err == nil {
		b.chars, b.err = addCounters(b.chars, o.chars, b.numDocs)
	}
	return b.err
}

// Build freezes the vocabulary: the cut over each counter array, a feature
// table by dictionary number. The builder can keep accumulating and be
// rebuilt.
func (b *VocabBuilder) Build() (*Vocabulary, error) {
	if err := b.Settle(); err != nil {
		return nil, err
	}
	var s aggBuffers
	s.idfTable(b.numDocs)
	v := &Vocabulary{cfg: b.cfg, dict: NewDictionary(b.words, b.chars), idfByDF: s.idfByDF}
	v.words, v.numWords = s.cut(b.words, b.cfg.MaxWordGrams, 0)
	v.chars, v.numChars = s.cut(b.chars, b.cfg.MaxCharGrams, uint32(v.numWords))
	return v, nil
}

// notSelected is the feature of a dictionary gram the cut left out.
const notSelected = math.MaxUint32

// cut is the vocabulary cut (§IV-A: "we order the n-grams by their frequency
// across the dataset [and] select the top N"): it returns the feature of
// each of counts' grams, by position — base plus its rank, descending
// frequency and ties by ascending gram id, for the top n; notSelected for
// the rest — and how many it selected. Ranking by (frequency, gram id)
// keeps the cut independent of how or in how many shards the counts were
// summed. Negative n keeps everything.
func (s *aggBuffers) cut(counts []GramCount, n int, base uint32) ([]uint32, int) {
	if n < 0 || n > len(counts) {
		n = len(counts)
	}
	feat := make([]uint32, len(counts))
	rank := s.rankByFreq(counts)
	for i := range counts {
		feat[i] = notSelected
		if r := rank[i]; r < uint32(n) {
			feat[i] = base + r
		}
	}
	return feat, n
}

// idf is the smoothed inverse document frequency: ln((1+N)/(1+df)).
// Corpus-universal grams (df = N) weigh ≈ 0, which is what makes TF-IDF
// discriminate: without it the high-frequency function-word grams dominate
// every vector's norm and all users look alike (§IV-A: TF-IDF "gives more
// importance to features that are frequently used by only one user and
// less importance to popular features such as stop-words").
func idf(n, df float64) float64 {
	return math.Log((1 + n) / (1 + df))
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
// The grams are addressed by their number in the dictionary of the counters
// the vocabulary was cut from: per family, a feature table gives each
// number its feature index (4 bytes a dictionary gram), and a gram's IDF is
// that of its document frequency, which the dictionary's counters hold, in
// a table of one entry per possible frequency. Vectorizing a numbered
// document is a lookup or two an entry — no merge, no probe.
type Vocabulary struct {
	cfg          Config
	dict         *Dictionary
	words, chars []uint32
	idfByDF      []float64
	numWords     int
	numChars     int
}

// Dictionary returns the dictionary the vocabulary's grams are numbered by:
// the gram lists of the counters it was cut from.
func (v *Vocabulary) Dictionary() *Dictionary { return v.dict }

// NumWordGrams returns how many word grams the cut selected.
func (v *Vocabulary) NumWordGrams() int { return v.numWords }

// NumCharGrams returns how many char grams the cut selected.
func (v *Vocabulary) NumCharGrams() int { return v.numChars }

// FreqOffset is the index of the first frequency feature.
func (v *Vocabulary) FreqOffset() uint32 {
	return uint32(v.numWords + v.numChars)
}

// ActivityOffset is the index of the first daily-activity dimension.
func (v *Vocabulary) ActivityOffset() uint32 {
	off := v.FreqOffset()
	if v.cfg.IncludeFreq {
		off += uint32(NumFreqFeatures)
	}
	return off
}

// VectorizeGrams converts a document into a TF-IDF weighted sparse
// vector over the n-gram sections of this vocabulary's index space, in a
// fresh vector: it numbers d by the vocabulary's dictionary and vectorizes
// that. Grams outside the vocabulary are ignored, and the frequency
// features are omitted: the attribution layer keeps the frequency and
// activity blocks separate so it can re-weight them at query time. An empty
// result has empty, not nil, slices.
func (v *Vocabulary) VectorizeGrams(d *PackedDoc) sparse.Vector {
	nd := v.dict.Number(d)
	est := nd.Entries()
	vec := sparse.Vector{Idx: make([]uint32, 0, est), Val: make([]float64, 0, est)}
	var s Scratch
	v.VectorizeGramsInto(&vec, &s, nd)
	return vec
}

// Scratch is what numbering and vectorizing keep between documents: the
// entries of the document at hand, decoded, and the index sort's second
// buffer. A caller that keeps one allocates nothing for them once it has
// held its largest document. Not safe for concurrent use.
type Scratch struct {
	entries []NumEntry
	sort    sparse.Vector
}

// VectorizeGramsInto is VectorizeGrams of a document already numbered
// by the vocabulary's dictionary, into vec's own storage (which grows only
// when d has more grams than any document vec held before), with the
// decoded entries and the index sort's second buffer in s. The vocabulary
// itself is only read, so concurrent callers need only their own vec and
// s. Term frequency is the gram count over the document's total count of
// the same family.
func (v *Vocabulary) VectorizeGramsInto(vec *sparse.Vector, s *Scratch, d *NumberedDoc) {
	var nw int
	s.entries, nw = d.unpack(s.entries[:0])
	vec.Idx = slices.Grow(vec.Idx[:0], len(s.entries))
	vec.Val = slices.Grow(vec.Val[:0], len(s.entries))
	v.vectorize(vec, s.entries[:nw], v.words, v.dict.words.grams, float64(max(d.WordTotal, 1)))
	v.vectorize(vec, s.entries[nw:], v.chars, v.dict.chars.grams, float64(max(d.CharTotal, 1)))
	vec.SortScratch(&s.sort)
}

// vectorize appends the (feature, weight) of every entry of es whose gram
// the cut selected, in the entries' order; counts are the dictionary's
// counters, whose document frequencies give the IDF.
func (v *Vocabulary) vectorize(vec *sparse.Vector, es []NumEntry, feat []uint32, counts []GramCount, den float64) {
	for _, e := range es {
		if f := feat[e.Num]; f != notSelected {
			vec.Idx = append(vec.Idx, f)
			vec.Val = append(vec.Val, float64(e.Count)/den*v.idfByDF[counts[e.Num].DF])
		}
	}
}
