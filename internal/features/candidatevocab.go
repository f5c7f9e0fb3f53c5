package features

import (
	"math/bits"
	"slices"

	"darklight/internal/sparse"
)

// CandidateVocab is VocabBuilder + Vocabulary for the ~k documents stage 2
// rebuilds the vocabulary over for every query: the same two kernels the
// corpus builder runs — mergeGramLists to count, selectGrams to cut — over
// storage it keeps between queries, where a VocabBuilder allocates its
// counters and a Vocabulary its tables afresh. The vectors are bit-identical
// to what the Vocabulary a VocabBuilder fed the same documents Builds would
// yield: one selection, one index assignment, one IDF function.
//
// A CandidateVocab is reusable — Reset rebuilds it in the storage of the
// previous build, so the one a matcher worker keeps allocates nothing once
// warm — and not safe for concurrent use.
type CandidateVocab struct {
	// wordByID / charByID hold the selected grams sorted by gram id, each
	// carrying its assigned feature index and IDF weight, so vectorization
	// is a two-pointer merge against a doc's sorted gram list.
	wordByID []cvEntry
	charByID []cvEntry
	scratch  aggBuffers
}

type cvEntry struct {
	id    GramID
	index uint32
	idf   float64
}

// aggBuffers is the scratch kept between vocabulary builds: the merge's
// ping-pong buffers and run boundaries, the counting sort's histogram,
// ranks and permutation, the IDF table, and the second buffer of the
// vectors' index sort.
type aggBuffers struct {
	a, b       []GramCount
	runs, next []int
	counts     []uint32
	rank, perm []uint32
	idfByDF    []float64
	sort       sparse.Vector
}

// Reset selects the vocabulary over the given documents under cfg's gram
// budgets, into v's own storage — equivalent to folding the same documents
// through a VocabBuilder and freezing it. Everything derived from the
// previous build is invalidated.
func (v *CandidateVocab) Reset(cfg Config, docs []*SortedDoc) {
	s := &v.scratch
	s.idfTable(len(docs))
	words := s.mergeGramLists(len(docs), func(i int) ([]GramEntry, int32) { return docs[i].WordGrams, 1 })
	v.wordByID = s.selectGrams(v.wordByID[:0], words, cfg.MaxWordGrams, 0)
	chars := s.mergeGramLists(len(docs), func(i int) ([]GramEntry, int32) { return docs[i].CharGrams, 1 })
	v.charByID = s.selectGrams(v.charByID[:0], chars, cfg.MaxCharGrams, uint32(len(v.wordByID)))
}

// idfTable fills idfByDF for a corpus of numDocs documents. Document
// frequencies run 0..numDocs: one math.Log per value, not per gram.
func (s *aggBuffers) idfTable(numDocs int) {
	s.idfByDF = s.idfByDF[:0]
	for df := range numDocs + 1 {
		s.idfByDF = append(s.idfByDF, idf(float64(numDocs), float64(df)))
	}
}

// NumWordGrams returns the size of the word-gram section.
func (v *CandidateVocab) NumWordGrams() int { return len(v.wordByID) }

// NumCharGrams returns the size of the char-gram section.
func (v *CandidateVocab) NumCharGrams() int { return len(v.charByID) }

// VectorizeGramsInto is Vocabulary.VectorizeGramsInto over this vocabulary,
// with the sort scratch v keeps between builds.
func (v *CandidateVocab) VectorizeGramsInto(vec *sparse.Vector, d *SortedDoc) {
	vectorizeInto(vec, &v.scratch.sort, d, section{byID: v.wordByID}, section{byID: v.charByID})
}

// vectorizeInto is the one vectorizer: it writes d's TF-IDF gram vector
// over the two id-sorted vocabulary sections into vec's own storage (which
// grows only when d has more grams than any document vec held before) and
// sorts it by feature index with scratch as the second buffer. Term
// frequency is the gram count over the document's total count of the same
// family.
func vectorizeInto(vec, scratch *sparse.Vector, d *SortedDoc, words, chars section) {
	est := len(d.WordGrams) + len(d.CharGrams)
	vec.Idx = slices.Grow(vec.Idx[:0], est)
	vec.Val = slices.Grow(vec.Val[:0], est)
	mergeVectorize(vec, d.WordGrams, words, float64(max(d.WordTotal, 1)))
	mergeVectorize(vec, d.CharGrams, chars, float64(max(d.CharTotal, 1)))
	vec.SortScratch(scratch)
}

// section is one gram family of a vocabulary, sorted by gram id. skip, when
// present, is the top-bits offset table of a long-lived section: skip[h] is
// the position of the first entry whose id>>shift is at least h.
type section struct {
	byID  []cvEntry
	skip  []uint32
	shift uint
}

// newSection attaches the offset table to a long-lived section's entries,
// which selectGrams emitted in ascending gram id.
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
// entries it has no gram for; with an offset table the section side jumps
// to the slot of the document's next gram instead.
func mergeVectorize(vec *sparse.Vector, doc []GramEntry, vocab section, den float64) {
	es := vocab.byID
	i, j := 0, 0
	for i < len(doc) && j < len(es) {
		switch {
		case doc[i].ID < es[j].id:
			i++
		case doc[i].ID > es[j].id:
			j++
			if vocab.skip != nil {
				j = max(j, int(vocab.skip[doc[i].ID>>vocab.shift]))
			}
		default:
			vec.Idx = append(vec.Idx, es[j].index)
			vec.Val = append(vec.Val, float64(doc[i].Count)/den*es[j].idf)
			i++
			j++
		}
	}
}

// mergeGramLists folds n id-sorted gram lists, one a document, into one
// id-sorted aggregate by pairwise tournament merging: O(total · log n)
// comparisons, no hashing. list(i) is document i's list and the sign it
// counts with: +1 adds the document, -1 subtracts one counted before. Sums
// are int32 and wrap; a caller whose counts could add up past that checks
// before it merges (VocabBuilder.settle). Levels ping-pong between the two
// scratch buffers; the returned slice aliases one of them and is only valid
// until the next merge.
func (s *aggBuffers) mergeGramLists(n int, list func(i int) ([]GramEntry, int32)) []GramCount {
	total := 0
	for i := range n {
		es, _ := list(i)
		total += len(es)
	}
	if total == 0 {
		return nil
	}
	src := slices.Grow(s.a[:0], total)
	dst := slices.Grow(s.b[:0], total)
	// runs holds the boundaries of the per-doc (later per-merge) sorted
	// runs laid out contiguously in src.
	runs, next := append(s.runs[:0], 0), s.next
	for i := range n {
		es, sign := list(i)
		for _, e := range es {
			src = append(src, GramCount{ID: e.ID, Freq: sign * e.Count, DF: sign})
		}
		if len(src) > runs[len(runs)-1] {
			runs = append(runs, len(src))
		}
	}
	for len(runs) > 2 {
		dst = dst[:0]
		next = next[:0]
		next = append(next, 0)
		i := 0
		for ; i+2 < len(runs); i += 2 {
			dst = mergeAggInto(dst, src[runs[i]:runs[i+1]], src[runs[i+1]:runs[i+2]])
			next = append(next, len(dst))
		}
		if i+1 < len(runs) {
			dst = append(dst, src[runs[i]:runs[i+1]]...)
			next = append(next, len(dst))
		}
		src, dst = dst, src
		runs, next = next, runs
	}
	s.a, s.b, s.runs, s.next = src, dst, runs, next
	return src[runs[0]:runs[1]]
}

// mergeAggInto appends the id-ordered union of a and b to out, summing the
// counters of grams both hold. Which side advances is a coin flip per step,
// so the loop selects with 0/1 multipliers: mispredictions bound the
// branching form.
func mergeAggInto(out, a, b []GramCount) []GramCount {
	k := len(out)
	out = out[:k+len(a)+len(b)]
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		x, y := a[i], b[j]
		var tx, ty int32 // take x / take y; both when the ids are equal
		if x.ID <= y.ID {
			tx = 1
		}
		if y.ID <= x.ID {
			ty = 1
		}
		out[k] = GramCount{ID: min(x.ID, y.ID), Freq: tx*x.Freq + ty*y.Freq, DF: tx*x.DF + ty*y.DF}
		k++
		i += int(tx)
		j += int(ty)
	}
	k += copy(out[k:], a[i:])
	k += copy(out[k:], b[j:])
	return out[:k]
}

// selectGrams is the vocabulary cut (§IV-A: "we order the n-grams by their
// frequency across the dataset [and] select the top N"): it appends to out
// the top-n entries of agg in ascending gram id, each carrying base + its
// rank — descending frequency, ties by ascending gram id, so the cut does
// not depend on how or in how many shards the counts were summed — as
// feature index, and its IDF from idfByDF. Negative n keeps everything.
func (s *aggBuffers) selectGrams(out []cvEntry, agg []GramCount, n int, base uint32) []cvEntry {
	if n < 0 || n > len(agg) {
		n = len(agg)
	}
	if n == 0 {
		return out
	}
	out = slices.Grow(out, n)
	rank := s.rankByFreq(agg)
	for i, e := range agg {
		if r := rank[i]; r < uint32(n) {
			out = append(out, cvEntry{id: e.ID, index: base + r, idf: s.idfByDF[e.DF]})
		}
	}
	return out
}

// rankByFreq sorts on 16-bit digits of the frequency, so its histogram
// never outgrows 65,536 counters however large a frequency an unlimited
// word budget produces.
const (
	digitBits = 16
	digitMask = 1<<digitBits - 1
)

// rankByFreq returns every entry's position in the cut's order. agg is
// id-sorted, so that order is a stable sort on descending frequency alone,
// which a counting sort yields without a comparison: an entry's rank is the
// number of larger frequencies plus the number of equals before it. One
// digit covers a query's candidates; a corpus's commonest grams pass it, and
// a positive int32 never needs more than the two LSD passes below.
func (s *aggBuffers) rankByFreq(agg []GramCount) []uint32 {
	maxFreq := int32(0)
	for _, e := range agg {
		maxFreq = max(maxFreq, e.Freq)
	}
	s.rank = slices.Grow(s.rank[:0], len(agg))[:len(agg)]
	if maxFreq <= digitMask {
		next := s.descendingOffsets(agg, 0, maxFreq)
		for i, e := range agg {
			s.rank[i] = next[e.Freq]
			next[e.Freq]++
		}
		return s.rank
	}
	s.perm = slices.Grow(s.perm[:0], len(agg))[:len(agg)]
	next := s.descendingOffsets(agg, 0, digitMask)
	for i, e := range agg {
		d := e.Freq & digitMask
		s.perm[next[d]] = uint32(i)
		next[d]++
	}
	next = s.descendingOffsets(agg, digitBits, maxFreq>>digitBits)
	for _, i := range s.perm {
		d := agg[i].Freq >> digitBits
		s.rank[i] = next[d]
		next[d]++
	}
	return s.rank
}

// descendingOffsets histograms the digit (freq >> shift) & digitMask, at
// most top, and returns per digit value where its run starts in a
// descending sort: the count of entries with a larger digit.
func (s *aggBuffers) descendingOffsets(agg []GramCount, shift uint, top int32) []uint32 {
	s.counts = slices.Grow(s.counts[:0], int(top)+1)[:top+1]
	clear(s.counts)
	for _, e := range agg {
		s.counts[(e.Freq>>shift)&digitMask]++
	}
	sum := uint32(0)
	for d := len(s.counts) - 1; d >= 0; d-- {
		s.counts[d], sum = sum, sum+s.counts[d]
	}
	return s.counts
}
