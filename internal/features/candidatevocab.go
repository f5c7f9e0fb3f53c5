package features

import (
	"math"
	mathbits "math/bits"
	"slices"
)

// CandidateVocab is stage 2's per-query vocabulary and gram scorer: the
// candidates' grams counted by dictionary number, the corpus builder's cut
// (rankByFreq) over the ~k candidate documents, then two sweeps over their
// TF-IDF weights laid out by feature index. Every score is bit-identical to
// sparse.Dot of the normalised vectors a Vocabulary built from the same
// documents yields: each sum adds the same terms in the same order,
// ascending feature index. Reusable — warm, it allocates nothing — and not
// safe for concurrent use.
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
	tiles   tileBuffers
}

// aggBuffers is the scratch kept between vocabulary builds: the merge's
// ping-pong buffers and run boundaries, the counting sort's histogram, ranks
// and permutation, and the IDF table.
type aggBuffers struct {
	a, b       []GramCount
	runs, next []int
	counts     []uint32
	rank, perm []uint32
	idfByDF    []float64
}

// Stage 2 counts grams one tile of tileSize consecutive dictionary numbers
// at a time: a tile's counters, landing slots and occupancy bits stay in
// cache however large the dictionary is, and scratch stays constant beside
// what is linear in the entries read.
const tileSize = 1 << 12

// tileBuffers is the tiled count's scratch. count, slot and occupied cover
// one tile; the rest grows with the entries read, which entries holds
// decoded, one gram family at a time. agg is the aggregate: per
// gram the candidates hold, in ascending number, its counters, with the
// number in place of the gram id (numbers ascend as ids do). spans[t] is the
// t-th tile holding a gram, where its aggregate begins.
type tileBuffers struct {
	count    []tileCount
	slot     []int32
	occupied []uint64
	agg      []GramCount
	spans    []tileSpan
	lists    []numberedList
	entries  []NumEntry
}

type tileCount struct{ freq, df int32 }

type tileSpan struct {
	base  uint32
	start int32
}

// numberedList is one document's gram family, with the walk's cursor: the
// first entry not yet in a tile.
type numberedList struct {
	es  []NumEntry
	den float64
	cur int
}

// Score selects the vocabulary over docs under cfg's gram budgets — what
// folding them through a VocabBuilder and freezing it selects — and scores
// u against each document: dots[j] is the dot product of document j's and
// u's unit-normalised TF-IDF gram vectors, has[j] whether document j holds a
// selected gram, uHas whether u does. All are numbered by one dictionary,
// which must hold every gram of docs; the grams of u it lacks, which
// numbering dropped, are held by no document, so they would fall outside the
// cut. dots and has alias v's storage and are valid until the next Score.
func (v *CandidateVocab) Score(cfg Config, docs []*NumberedDoc, u *NumberedDoc) (dots []float64, has []bool, uHas bool) {
	v.scratch.idfTable(len(docs))
	v.postX, v.postDoc, v.end, v.uval = v.postX[:0], v.postDoc[:0], v.end[:0], v.uval[:0]
	v.has = extend(v.has[:0], len(docs))
	uw := v.addFamily(docs, u, cfg.MaxWordGrams, func(d *NumberedDoc) ([]byte, int) {
		words, _ := d.Lists()
		return words, d.WordTotal
	})
	uc := v.addFamily(docs, u, cfg.MaxCharGrams, func(d *NumberedDoc) ([]byte, int) {
		_, chars := d.Lists()
		return chars, d.CharTotal
	})

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

// addFamily decodes one gram family of the documents and u — family(d) is
// d's packed list and its total — into t.entries, counts it by number
// (countTiles), cuts the top n as a Vocabulary's cut does, with feature
// indices after those already laid out, and places every selected entry
// (placeTiles): u's in uval, the documents' in the run of its feature, which
// holds the gram's df of entries. It reports whether u holds a selected
// gram.
func (v *CandidateVocab) addFamily(docs []*NumberedDoc, u *NumberedDoc, n int, family func(*NumberedDoc) ([]byte, int)) bool {
	s, t := &v.scratch, &v.tiles
	t.lists = t.lists[:0]
	entries := 0
	for _, d := range append(docs, u) {
		p, _ := family(d)
		entries += PackedLen(p)
	}
	// Sized first, so that every list is a window on the one array.
	t.entries = slices.Grow(t.entries[:0], entries)
	for _, d := range append(docs, u) {
		p, total := family(d)
		start := len(t.entries)
		t.entries = Unpack(t.entries, p)
		t.lists = append(t.lists, numberedList{es: t.entries[start:], den: float64(max(total, 1))})
	}
	agg := t.countTiles()
	if n < 0 || n > len(agg) {
		n = len(agg)
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
	return v.placeTiles(rank, sel, base, end)
}

// countTiles sums the documents' lists — all of t.lists but the last, the
// unknown's — into the aggregate, one tile at a time: each tile the lowest
// number left opens, every list's entries in it counted in the tile's
// counters and then emitted in ascending number, which is ascending gram id.
func (t *tileBuffers) countTiles() []GramCount {
	if t.count == nil {
		t.count = make([]tileCount, tileSize)
		t.slot = make([]int32, tileSize)
		t.occupied = make([]uint64, tileSize/64)
	}
	lists := t.lists[:len(t.lists)-1]
	for i := range lists {
		lists[i].cur = 0
	}
	agg, spans := t.agg[:0], t.spans[:0]
	count, occupied := t.count[:tileSize], t.occupied[:tileSize/64]
	for {
		low := uint32(notNumbered)
		for i := range lists {
			if l := &lists[i]; l.cur < len(l.es) {
				low = min(low, l.es[l.cur].Num)
			}
		}
		if low == notNumbered {
			break
		}
		base := low &^ (tileSize - 1)
		end := base + tileSize
		spans = append(spans, tileSpan{base: base, start: int32(len(agg))})
		for i := range lists {
			l := &lists[i]
			k, es := l.cur, l.es
			for ; k < len(es) && es[k].Num < end; k++ {
				slot := (es[k].Num - base) & (tileSize - 1)
				occupied[slot/64] |= 1 << (slot % 64)
				c := &count[slot]
				c.freq += es[k].Count
				c.df++
			}
			l.cur = k
		}
		for w, bits := range occupied {
			for ; bits != 0; bits &= bits - 1 {
				slot := w*64 + mathbits.TrailingZeros64(bits)
				c := &count[slot]
				agg = append(agg, GramCount{ID: GramID(base) + GramID(slot), Freq: c.freq, DF: c.df})
				*c = tileCount{}
			}
			occupied[w] = 0
		}
	}
	t.agg, t.spans = agg, spans
	return agg
}

// placeTiles walks the tiles again once the cut has ranked the aggregate:
// per tile, the slot of each of its grams records where the gram is in the
// aggregate, and then each list — the documents' in order, the unknown's
// last — places its entries in the tile. A run lies inside one tile and is
// filled in document order, so every run holds its postings in the order a
// whole-list walk would place them. It reports whether the unknown holds a
// selected gram.
func (v *CandidateVocab) placeTiles(rank []uint32, sel, base uint32, end []int32) bool {
	t := &v.tiles
	idf, agg, slot := v.scratch.idfByDF, t.agg, t.slot[:tileSize]
	postX, postDoc := v.postX, v.postDoc
	docs, u := t.lists[:len(t.lists)-1], &t.lists[len(t.lists)-1]
	for i := range t.lists {
		t.lists[i].cur = 0
	}
	found := false
	for ti, span := range t.spans {
		lo, hi := span.start, int32(len(agg))
		if ti+1 < len(t.spans) {
			hi = t.spans[ti+1].start
		}
		tileEnd := span.base + tileSize
		for a := lo; a < hi; a++ {
			slot[(uint32(agg[a].ID)-span.base)&(tileSize-1)] = a
		}
		for j := range docs {
			l := &docs[j]
			es, den := l.es, l.den
			k, held := l.cur, false
			for ; k < len(es) && es[k].Num < tileEnd; k++ {
				a := slot[(es[k].Num-span.base)&(tileSize-1)]
				r := rank[a]
				if r >= sel {
					continue
				}
				held = true
				// The weight is zero only where the IDF is: a count over
				// its total and a nonzero IDF are both far above underflow.
				w := idf[agg[a].DF]
				if w == 0 {
					continue
				}
				p := end[r]
				postX[p], postDoc[p] = float64(es[k].Count)/den*w, int32(j)
				end[r] = p + 1
			}
			l.cur = k
			if held {
				v.has[j] = true
			}
		}
		// The unknown's numbers skip grams in tiles no document touches; a
		// slot holds one of the tile's grams only if the aggregate entry it
		// names is that gram.
		k := u.cur
		for ; k < len(u.es); k++ {
			num := u.es[k].Num
			if num < span.base {
				continue
			}
			if num >= tileEnd {
				break
			}
			a := slot[(num-span.base)&(tileSize-1)]
			if a < lo || a >= hi || uint32(agg[a].ID) != num {
				continue
			}
			if r := rank[a]; r < sel {
				v.uval[base+r], found = float64(u.es[k].Count)/u.den*idf[agg[a].DF], true
			}
		}
		u.cur = k
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

// mergeGramLists folds n gram families, one a document, into one id-sorted
// aggregate by pairwise tournament merging: O(total · log n) comparisons, no
// hashing. list(i) is document i's family, decoded straight into its run,
// and the sign it counts with: +1 adds the document, -1 subtracts one
// counted before. Sums are int32 and wrap; a caller whose counts could add
// up past that checks before it merges (VocabBuilder.settle). Levels
// ping-pong between the two scratch buffers; the returned slice aliases one
// of them and is only valid until the next merge.
func (s *aggBuffers) mergeGramLists(n int, list func(i int) (family, int32)) []GramCount {
	total := 0
	for i := range n {
		f, _ := list(i)
		total += f.entries()
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
		f, sign := list(i)
		for k := range f.entries() {
			src = append(src, GramCount{ID: f.id(k), Freq: sign * f.count(), DF: sign})
		}
		if len(src) > runs[len(runs)-1] {
			runs = append(runs, len(src))
		}
	}
	for len(runs) > 2 {
		dst, next = dst[:0], append(next[:0], 0)
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
