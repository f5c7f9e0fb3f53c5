package features

import (
	"math"
	"slices"
)

// CandidateVocab is stage 2's per-query vocabulary and gram scorer: the
// corpus builder's kernels — mergeGramLists to count, rankByFreq to cut —
// over the ~k candidate documents, then two sweeps over their TF-IDF weights
// laid out by feature index. Every score is bit-identical to sparse.Dot of
// the normalised vectors a Vocabulary built from the same documents yields:
// each sum adds the same terms in the same order, ascending feature index.
// Reusable — warm, it allocates nothing — and not safe for concurrent use.
type CandidateVocab struct {
	// One run per selected feature, ascending, feature f's ending at end[f]:
	// the documents' nonzero weights and their documents. uval is the
	// unknown's weight per feature, has[j] whether document j holds a
	// selected gram, inv[j] its 1/‖c_j‖.
	postX   []float64
	postDoc []int32
	end     []int32
	uval    []float64
	has     []bool
	inv     []float64
	dots    []float64

	scratch aggBuffers
}

type cvEntry struct {
	id    GramID
	index uint32
	idf   float64
}

// aggBuffers is the scratch kept between vocabulary builds: the merge's
// ping-pong buffers, run boundaries and landing positions, the counting
// sort's histogram, ranks and permutation, and the IDF table.
type aggBuffers struct {
	a, b       []GramCount
	runs, next []int
	pos, land  []int32
	counts     []uint32
	rank, perm []uint32
	idfByDF    []float64
}

// Score selects the vocabulary over docs under cfg's gram budgets — what
// folding them through a VocabBuilder and freezing it selects — and scores
// u against each document: dots[j] is the dot product of document j's and
// u's unit-normalised TF-IDF gram vectors, has[j] whether document j holds a
// selected gram, uHas whether u does. dots and has alias v's storage and are
// valid until the next Score.
func (v *CandidateVocab) Score(cfg Config, docs []*SortedDoc, u *SortedDoc) (dots []float64, has []bool, uHas bool) {
	v.scratch.idfTable(len(docs))
	v.postX, v.postDoc, v.end, v.uval = v.postX[:0], v.postDoc[:0], v.end[:0], v.uval[:0]
	v.has = extend(v.has[:0], len(docs))
	uw := v.addFamily(docs, u, cfg.MaxWordGrams, func(d *SortedDoc) ([]GramEntry, int) { return d.WordGrams, d.WordTotal })
	uc := v.addFamily(docs, u, cfg.MaxCharGrams, func(d *SortedDoc) ([]GramEntry, int) { return d.CharGrams, d.CharTotal })

	// The first sweep: ‖c_j‖² and ‖u‖² in ascending feature index, as Norm
	// walks a sorted vector, and the 1/‖x‖ Normalize scales by. A zero weight
	// adds +0, which leaves a non-negative sum as it was, so it is skipped —
	// and a zero norm, which Normalize leaves alone, has only zero weights:
	// its +Inf is never multiplied.
	v.inv = extend(v.inv[:0], len(docs))
	for p, x := range v.postX {
		v.inv[v.postDoc[p]] += x * x
	}
	for j, sum := range v.inv {
		v.inv[j] = 1 / math.Sqrt(sum)
	}
	sum := 0.0
	for _, x := range v.uval {
		sum += x * x
	}
	uinv := 1 / math.Sqrt(sum)

	// The second sweep: the products sparse.Dot adds, in its order.
	v.dots = extend(v.dots[:0], len(docs))
	start := int32(0)
	for f, x := range v.uval {
		if x != 0 {
			ux := x * uinv
			for p := start; p < v.end[f]; p++ {
				j := v.postDoc[p]
				v.dots[j] += ux * (v.postX[p] * v.inv[j])
			}
		}
		start = v.end[f]
	}
	return v.dots, v.has, uw || uc
}

// addFamily merges one gram family of the documents and u — which counts 0,
// so the cut leaves out the grams only u holds — recording where each entry
// lands, cuts the top n as selectGrams does, with feature indices after
// those already laid out, and places every selected entry: u's in uval, the
// documents' in the run of its feature, which holds the gram's df of
// entries. It reports whether u holds a selected gram.
func (v *CandidateVocab) addFamily(docs []*SortedDoc, u *SortedDoc, n int, family func(*SortedDoc) ([]GramEntry, int)) bool {
	s := &v.scratch
	doc := func(j int) *SortedDoc {
		if j == len(docs) {
			return u
		}
		return docs[j]
	}
	agg := s.mergeGramLists(len(docs)+1, func(j int) ([]GramEntry, int32) {
		es, _ := family(doc(j))
		if j == len(docs) {
			return es, 0 // u's entries land in the aggregate but count nothing
		}
		return es, 1
	}, true)
	live := 0 // the grams a document holds: they rank before u's alone
	for _, e := range agg {
		if e.DF > 0 {
			live++
		}
	}
	if n < 0 || n > live {
		n = live
	}
	if n == 0 {
		return false
	}
	sel, base, rank := uint32(n), uint32(len(v.end)), s.rankByFreq(agg)
	v.end, v.uval = extend(v.end, int(sel)), extend(v.uval, int(sel))
	end := v.end[base:]
	for i, e := range agg {
		if r := rank[i]; r < sel && s.idfByDF[e.DF] != 0 {
			end[r] = e.DF
		}
	}
	// end is the placement cursor: from each run's start to its end.
	next := int32(len(v.postX))
	for f, size := range end {
		end[f], next = next, next+size
	}
	v.postX = slices.Grow(v.postX, int(next)-len(v.postX))[:next]
	v.postDoc = slices.Grow(v.postDoc, int(next)-len(v.postDoc))[:next]
	found, e := false, 0
	for j := range len(docs) + 1 {
		es, total := family(doc(j))
		den := float64(max(total, 1))
		for _, g := range es {
			a := s.pos[e]
			e++
			r := rank[a]
			if r >= sel {
				continue
			}
			x := float64(g.Count) / den * s.idfByDF[agg[a].DF]
			if j == len(docs) {
				v.uval[base+r], found = x, true
				continue
			}
			v.has[j] = true
			if x != 0 {
				v.postX[end[r]], v.postDoc[end[r]] = x, int32(j)
				end[r]++
			}
		}
	}
	return found
}

// extend appends n zero values to s, in its own storage when it has room.
func extend[T any](s []T, n int) []T {
	s = slices.Grow(s, n)[:len(s)+n]
	clear(s[len(s)-n:])
	return s
}

// idfTable fills idfByDF for a corpus of numDocs documents. Document
// frequencies run 0..numDocs: one math.Log per value, not per gram.
func (s *aggBuffers) idfTable(numDocs int) {
	s.idfByDF = s.idfByDF[:0]
	for df := range numDocs + 1 {
		s.idfByDF = append(s.idfByDF, idf(float64(numDocs), float64(df)))
	}
}

// mergeGramLists folds n id-sorted gram lists, one a document, into one
// id-sorted aggregate by pairwise tournament merging: O(total · log n)
// comparisons, no hashing. list(i) is document i's list and the sign it
// counts with: +1 adds the document, -1 subtracts one counted before. Sums
// are int32 and wrap; a caller whose counts could add up past that checks
// before it merges (VocabBuilder.settle). Levels ping-pong between the two
// scratch buffers; the returned slice aliases one of them and is only valid
// until the next merge. With track set, s.pos[e] is afterwards the aggregate
// position of the e-th entry of the lists laid end to end, composed from
// where each level's entries land; without, s.pos and s.land are dropped.
func (s *aggBuffers) mergeGramLists(n int, list func(i int) ([]GramEntry, int32), track bool) []GramCount {
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
	var pos, land []int32
	if track {
		pos = slices.Grow(s.pos[:0], total)[:total]
		land = slices.Grow(s.land[:0], total)[:total]
	}
	level := 0
	for ; len(runs) > 2; level++ {
		dst, next = dst[:0], append(next[:0], 0)
		i := 0
		for ; i+2 < len(runs); i += 2 {
			var l []int32
			if track {
				l = land[runs[i]:runs[i+2]]
			}
			dst = mergeAggInto(dst, src[runs[i]:runs[i+1]], src[runs[i+1]:runs[i+2]], l)
			next = append(next, len(dst))
		}
		if i+1 < len(runs) {
			if track {
				landRun(land[runs[i]:runs[i+1]], len(dst))
			}
			dst = append(dst, src[runs[i]:runs[i+1]]...)
			next = append(next, len(dst))
		}
		if level == 0 {
			pos, land = land, pos // the first level's entries are the lists'
		} else {
			for e, p := range pos {
				pos[e] = land[p]
			}
		}
		src, dst = dst, src
		runs, next = next, runs
	}
	if level == 0 {
		landRun(pos, 0) // one list: nothing moved
	}
	s.a, s.b, s.runs, s.next, s.pos, s.land = src, dst, runs, next, pos, land
	return src[runs[0]:runs[1]]
}

// mergeAggInto appends the id-ordered union of a and b to out, summing the
// counters of grams both hold. Which side advances is a coin flip per step,
// so the loop selects with 0/1 multipliers: mispredictions bound the
// branching form. A non-nil land (len(a)+len(b) long, a's entries first)
// receives every input entry's position in out.
func mergeAggInto(out, a, b []GramCount, land []int32) []GramCount {
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
		if land != nil {
			// Both written every step: an entry not taken here is written
			// again at the step that takes it.
			land[i], land[len(a)+j] = int32(k), int32(k)
		}
		out[k] = GramCount{ID: min(x.ID, y.ID), Freq: tx*x.Freq + ty*y.Freq, DF: tx*x.DF + ty*y.DF}
		k++
		i += int(tx)
		j += int(ty)
	}
	if land != nil {
		landRun(land[i:len(a)], k)
		landRun(land[len(a)+j:], k+len(a)-i)
	}
	k += copy(out[k:], a[i:])
	k += copy(out[k:], b[j:])
	return out[:k]
}

// landRun records a run of entries copied whole to positions from k on.
func landRun(land []int32, k int) {
	for p := range land {
		land[p] = int32(k + p)
	}
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
