package features

import (
	"encoding/binary"
	"slices"
)

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

// PackedDoc is a SortedDoc at about nine bytes an entry where the SortedDoc
// takes sixteen: every gram id as a little-endian 8-byte word, the word
// list's and then the char list's, and after them every count as a uvarint
// in the same order, all in one array of exact size, beside the totals and
// frequencies. It is how an extraction is kept between uses — a by-alias
// query's, from one generation of a serving index to the next. It names
// grams by id, not by a dictionary's numbers, so no change of corpus
// invalidates it. Unpack gives back the SortedDoc it was packed from.
// Immutable; safe for concurrent use.
type PackedDoc struct {
	doc          SortedDoc // the totals and frequencies; no gram lists
	data         []byte
	words, chars int // the lists' entry counts
}

// Pack packs d, which it does not keep.
func (d *SortedDoc) Pack() *PackedDoc {
	lists := [...][]GramEntry{d.WordGrams, d.CharGrams}
	n := len(d.WordGrams) + len(d.CharGrams)
	size := 8 * n
	for _, es := range lists {
		for _, e := range es {
			size += uvarintSize(uint64(e.Count))
		}
	}
	data := make([]byte, 8*n, size)
	ids := data
	for _, es := range lists {
		for _, e := range es {
			binary.LittleEndian.PutUint64(ids, uint64(e.ID))
			ids = ids[8:]
		}
	}
	for _, es := range lists {
		for _, e := range es {
			data = binary.AppendUvarint(data, uint64(e.Count))
		}
	}
	p := &PackedDoc{doc: *d, data: data, words: len(d.WordGrams), chars: len(d.CharGrams)}
	p.doc.WordGrams, p.doc.CharGrams = nil, nil
	return p
}

// Entries returns how many gram entries p holds.
func (p *PackedDoc) Entries() int { return p.words + p.chars }

// Unpack returns the SortedDoc p was packed from, both gram lists in one
// new array.
func (p *PackedDoc) Unpack() *SortedDoc {
	d := p.doc
	es := make([]GramEntry, p.Entries())
	ids, counts := p.data[:8*len(es)], p.data[8*len(es):]
	for k := range es {
		count := uint64(counts[0])
		if count < 0x80 {
			counts = counts[1:]
		} else {
			var n int
			count, n = binary.Uvarint(counts)
			counts = counts[n:]
		}
		es[k] = GramEntry{ID: GramID(binary.LittleEndian.Uint64(ids[8*k:])), Count: int32(count)}
	}
	d.WordGrams, d.CharGrams = es[:p.words:p.words], es[p.words:]
	return &d
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
