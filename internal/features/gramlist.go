package features

// GramEntry is one (gram id, count) pair of an id-sorted gram list.
type GramEntry struct {
	ID    GramID
	Count int32
}

// SortedDoc is a Doc flattened into id-sorted slices. It carries exactly
// the information of a Doc but in a form the candidate-vocabulary fast
// path can merge linearly: hash maps are where the per-query stage-2
// rebuild spends most of its time, and none survive here. A SortedDoc is
// also ~2-3× smaller than the Doc's maps, which matters for the matcher's
// per-subject cache.
type SortedDoc struct {
	WordGrams  []GramEntry
	CharGrams  []GramEntry
	WordTotal  int
	CharTotal  int
	Freq       [NumFreqFeatures]float64
	TotalChars int
}

// Sorted flattens the Doc. The Doc itself is unchanged and can be dropped.
func (d *Doc) Sorted() *SortedDoc {
	return &SortedDoc{
		WordGrams:  sortedEntries(d.WordGrams),
		CharGrams:  sortedEntries(d.CharGrams),
		WordTotal:  d.WordTotal,
		CharTotal:  d.CharTotal,
		Freq:       d.Freq,
		TotalChars: d.TotalChars,
	}
}

func sortedEntries(m map[GramID]int) []GramEntry {
	out := make([]GramEntry, 0, len(m))
	for g, c := range m {
		out = append(out, GramEntry{ID: g, Count: int32(c)})
	}
	sortEntriesByID(out, 56)
	return out
}

// sortEntriesByID sorts es by gram id in place, on the byte at shift and,
// recursively, the bytes below it. Gram ids are hashes: the leading byte
// splits a list evenly and a second level leaves buckets an insertion sort
// finishes in a few moves, so the sort is linear where a comparison sort
// was the largest cost of flattening a query document. Ids that share
// leading bytes cost a pass per shared byte, at most eight.
func sortEntriesByID(es []GramEntry, shift uint) {
	if len(es) <= 32 {
		for i := 1; i < len(es); i++ {
			e := es[i]
			j := i
			for ; j > 0 && es[j-1].ID > e.ID; j-- {
				es[j] = es[j-1]
			}
			es[j] = e
		}
		return
	}
	// start[b] is where bucket b begins; start[256] is len(es).
	var start [257]int
	for _, e := range es {
		start[int(byte(e.ID>>shift))+1]++
	}
	for b := 1; b < len(start); b++ {
		start[b] += start[b-1]
	}
	// Permute in place: whatever sits at a bucket's fill cursor is swapped
	// into its own bucket until an entry of this bucket arrives.
	next := start
	for b := 0; b < 256; b++ {
		for next[b] < start[b+1] {
			e := es[next[b]]
			for d := byte(e.ID >> shift); int(d) != b; d = byte(e.ID >> shift) {
				e, es[next[d]] = es[next[d]], e
				next[d]++
			}
			es[next[b]] = e
			next[b]++
		}
	}
	if shift == 0 {
		return
	}
	for b := 0; b < 256; b++ {
		sortEntriesByID(es[start[b]:start[b+1]], shift-8)
	}
}
