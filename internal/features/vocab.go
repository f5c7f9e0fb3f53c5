package features

import (
	"fmt"
	"math"
	"math/bits"
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
// no hash map anywhere. Documents collect as pending id-sorted lists and are
// merged in a batch at a time by the two kernels CandidateVocab runs per
// query, without the landing positions it records: mergeGramLists sums the
// batch, mergeAggInto adds it to the array. A batch closes once it holds as
// many entries as the arrays, so the merging stays linear in what the
// builder was fed and a builder keeps a bounded number of documents alive
// however many pass through it. Removing a document is the same merge with
// its counts negated.
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
// Counters are int32, the width that keeps stage 2's merge at 16 bytes an
// entry. What the counters cannot hold — a gram counted more than 2^31-1
// times, a document removed that was never added — latches as the builder's
// error: Settle, Merge, State and Build report it.
type VocabBuilder struct {
	cfg      Config
	words    []GramCount
	chars    []GramCount
	numDocs  int
	freqSeen [NumFreqFeatures]int
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
	doc  *SortedDoc
	sign int32
}

// minBatch is the fewest gram entries a batch closes at: below it the merge
// into the arrays would cost more than summing the batch.
const minBatch = 1 << 16

// NewVocabBuilder returns a builder for the given configuration.
func NewVocabBuilder(cfg Config) *VocabBuilder {
	return &VocabBuilder{cfg: cfg}
}

// AddSorted folds one document's counts into the corpus statistics. The
// builder keeps the document only until its batch closes; it must not change
// until the builder has settled.
func (b *VocabBuilder) AddSorted(d *SortedDoc) { b.fold(d, 1) }

// RemoveSorted subtracts a previously added document, the exact inverse of
// AddSorted: once settled the counters equal a builder's that never saw d,
// grams whose counters reach zero gone from the arrays with it.
func (b *VocabBuilder) RemoveSorted(d *SortedDoc) { b.fold(d, -1) }

// fold queues d to be counted sign (+1 or -1) times.
func (b *VocabBuilder) fold(d *SortedDoc, sign int32) {
	count := int64(0)
	for _, es := range [...][]GramEntry{d.WordGrams, d.CharGrams} {
		for _, e := range es {
			count += int64(e.Count)
		}
	}
	// mergeGramLists sums in int32 without looking: a batch never counts
	// more occurrences than that holds.
	if b.pendingCount+count > math.MaxInt32 {
		b.settle()
	}
	b.numDocs += int(sign)
	for i, f := range d.Freq {
		if f > 0 {
			b.freqSeen[i] += int(sign)
		}
	}
	b.pending = append(b.pending, pendingDoc{doc: d, sign: sign})
	b.pendingEntries += len(d.WordGrams) + len(d.CharGrams)
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
		words := s.mergeGramLists(len(b.pending), func(i int) ([]GramEntry, int32) { return b.pending[i].doc.WordGrams, b.pending[i].sign }, false)
		b.words, b.err = addCounters(b.words, words, b.numDocs)
		if b.err == nil {
			chars := s.mergeGramLists(len(b.pending), func(i int) ([]GramEntry, int32) { return b.pending[i].doc.CharGrams, b.pending[i].sign }, false)
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
	out := mergeAggInto(make([]GramCount, 0, len(a)+len(b)), a, b, nil)
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
	for i := range o.freqSeen {
		b.freqSeen[i] += o.freqSeen[i]
	}
	if b.words, b.err = addCounters(b.words, o.words, b.numDocs); b.err == nil {
		b.chars, b.err = addCounters(b.chars, o.chars, b.numDocs)
	}
	return b.err
}

// NumDocs returns the number of documents added so far.
func (b *VocabBuilder) NumDocs() int { return b.numDocs }

// Build freezes the vocabulary: selectGrams, the cut CandidateVocab makes per
// query, over each counter array — linear, and already in the gram-id order
// a Vocabulary section is kept in. The builder can keep accumulating and be
// rebuilt.
func (b *VocabBuilder) Build() (*Vocabulary, error) {
	if err := b.Settle(); err != nil {
		return nil, err
	}
	var s aggBuffers
	s.idfTable(b.numDocs)
	words := s.selectGrams(nil, b.words, b.cfg.MaxWordGrams, 0)
	chars := s.selectGrams(nil, b.chars, b.cfg.MaxCharGrams, uint32(len(words)))
	return &Vocabulary{cfg: b.cfg, words: newSection(words), chars: newSection(chars), numDocs: b.numDocs}, nil
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
// Each section is one table sorted by gram id, every entry carrying its
// feature index and IDF weight — the form selectGrams emits, for a corpus
// here and per query in CandidateVocab — so vectorizing a document
// is a merge, never a hash probe.
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

// VectorizeGramsSorted converts a document into a TF-IDF weighted sparse
// vector over the n-gram sections of this vocabulary's index space, in a
// fresh vector. Grams outside the vocabulary are ignored, and the frequency
// features are omitted: the attribution layer keeps the frequency and
// activity blocks separate so it can re-weight them at query time. An empty
// result has empty, not nil, slices.
func (v *Vocabulary) VectorizeGramsSorted(d *SortedDoc) sparse.Vector {
	est := len(d.WordGrams) + len(d.CharGrams)
	vec := sparse.Vector{Idx: make([]uint32, 0, est), Val: make([]float64, 0, est)}
	var scratch sparse.Vector
	v.VectorizeGramsInto(&vec, &scratch, d)
	return vec
}

// VectorizeGramsInto is VectorizeGramsSorted into vec's own storage (which
// grows only when d has more grams than any document vec held before), with
// the index sort's second buffer taken from scratch: a caller that keeps
// both allocates nothing once they have held its largest document. The
// vocabulary itself is only read, so concurrent callers need only their own
// vec and scratch. Term frequency is the gram count over the document's
// total count of the same family.
func (v *Vocabulary) VectorizeGramsInto(vec, scratch *sparse.Vector, d *SortedDoc) {
	est := len(d.WordGrams) + len(d.CharGrams)
	vec.Idx = slices.Grow(vec.Idx[:0], est)
	vec.Val = slices.Grow(vec.Val[:0], est)
	mergeVectorize(vec, d.WordGrams, v.words, float64(max(d.WordTotal, 1)))
	mergeVectorize(vec, d.CharGrams, v.chars, float64(max(d.CharTotal, 1)))
	vec.SortScratch(scratch)
}

// section is one gram family of a vocabulary, sorted by gram id, with the
// top-bits offset table of its ids: skip[h] is the position of the first
// entry whose id>>shift is at least h.
type section struct {
	byID  []cvEntry
	skip  []uint32
	shift uint
}

// newSection attaches the offset table to a section's entries, which
// selectGrams emitted in ascending gram id.
func newSection(es []cvEntry) section {
	s := section{byID: es}
	s.skip, s.shift = skipTable(es, func(e *cvEntry) GramID { return e.id })
	return s
}

// skipTable builds the top-bits offset table of an id-sorted list: one slot
// per entry rounded up to a power of two (at most 2^16), skip[h] the
// position of the first entry whose id>>shift is at least h. Gram ids are
// uniform hashes, so a slot covers a few entries at most and a lookup lands
// next to its answer.
func skipTable[E any](es []E, id func(*E) GramID) (skip []uint32, shift uint) {
	b := min(bits.Len(uint(len(es))), 16)
	skip, shift = make([]uint32, 1<<b+1), uint(64-b)
	for i := range es {
		skip[id(&es[i])>>shift+1]++
	}
	for h := 1; h < len(skip); h++ {
		skip[h] += skip[h-1]
	}
	return skip, shift
}

// mergeVectorize appends the entries of the grams doc shares with vocab:
// both are sorted by gram id, so one two-pointer pass finds them. A short
// document against a long section would spend the pass stepping over
// entries it has no gram for, so the section side jumps to the slot of the
// document's next gram instead.
func mergeVectorize(vec *sparse.Vector, doc []GramEntry, vocab section, den float64) {
	es := vocab.byID
	i, j := 0, 0
	for i < len(doc) && j < len(es) {
		switch {
		case doc[i].ID < es[j].id:
			i++
		case doc[i].ID > es[j].id:
			j = max(j+1, int(vocab.skip[doc[i].ID>>vocab.shift]))
		default:
			vec.Idx = append(vec.Idx, es[j].index)
			vec.Val = append(vec.Val, float64(doc[i].Count)/den*es[j].idf)
			i++
			j++
		}
	}
}
