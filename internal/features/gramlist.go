package features

import "slices"

// GramEntry is one (gram id, count) pair of an id-sorted gram list.
type GramEntry struct {
	ID    GramID
	Count int32
}

// SortedDoc holds the raw feature counts of one document (the concatenated
// text of one alias): per gram family one list in ascending gram id, as
// Extract emits it. The corpus counters merge it in by id; everything else
// reads a document numbered by a Dictionary (NumberedDoc), which is what a
// matcher holds.
type SortedDoc struct {
	WordGrams  []GramEntry
	CharGrams  []GramEntry
	WordTotal  int
	CharTotal  int
	Freq       [NumFreqFeatures]float64
	TotalChars int
}

// The id sort orders by an id's top 24 bits in two radix passes of 12, then
// finishes what those bits leave unordered.
const (
	radixBits = 12
	radixMask = 1<<radixBits - 1
	sortShift = 64 - 2*radixBits
)

// countIDs turns one gram family's occurrence ids into its id-sorted
// (id, count) list: it sorts ids in place, through scratch, which must be as
// long, and run-length counts them.
func countIDs(ids, scratch []uint64) []GramEntry {
	sortIDs(ids, scratch)
	distinct := 0
	for i, id := range ids {
		if i == 0 || id != ids[i-1] {
			distinct++
		}
	}
	out := make([]GramEntry, 0, distinct)
	for i := 0; i < len(ids); {
		j := i + 1
		for j < len(ids) && ids[j] == ids[i] {
			j++
		}
		out = append(out, GramEntry{ID: GramID(ids[i]), Count: int32(j - i)})
		i = j
	}
	return out
}

// sortIDs sorts ids ascending, through scratch, a second buffer at least as
// long.
//
// Occurrences are mostly repeats — every common char 1–3-gram is hundreds of
// equal ids — so the sort is an LSD radix sort, which moves an id the same
// number of times however often it repeats (a most-significant-digit sort
// recurses through every byte of a bucket of equal ids, a comparison sort
// compares them log n times: both measured slower than the hash map this
// replaced). It need not cover all 64 bits: ids are hashes, so after two
// passes over the top 24 bits only a handful of distinct ids share a prefix
// and may be out of order, and the last walk finds those groups and sorts
// each. (Not fewer bits: an FNV-1a id carries its last byte in bits 40–47,
// and grams that differ only there are common.) Ids crafted to share
// prefixes cost that walk a comparison sort of the group, never more.
func sortIDs(ids, scratch []uint64) {
	if len(ids) < 2 {
		return
	}
	src, dst := ids, scratch[:len(ids)]
	for shift := uint(sortShift); shift < 64; shift += radixBits {
		var next [1 << radixBits]int
		for _, id := range src {
			next[id>>shift&radixMask]++
		}
		sum := 0
		for b, c := range next {
			next[b], sum = sum, sum+c
		}
		for _, id := range src {
			b := id >> shift & radixMask
			dst[next[b]] = id
			next[b]++
		}
		src, dst = dst, src // two passes: the second lands back in ids
	}
	for i := 0; i < len(ids); {
		j, uniform := i+1, true
		for ; j < len(ids) && ids[j]>>sortShift == ids[i]>>sortShift; j++ {
			uniform = uniform && ids[j] == ids[i]
		}
		if !uniform {
			slices.Sort(ids[i:j])
		}
		i = j
	}
}
