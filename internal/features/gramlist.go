package features

// This file holds a document as extracted — the PackedDoc, its grams named
// by id — and the id sort Extract counts through. The one other form a
// document takes, numbered by a corpus's Dictionary, is the NumberedDoc
// (state.go).

import (
	"encoding/binary"
	"slices"
)

// PackedDoc holds the raw feature counts of one document (the concatenated
// text of one alias), as Extract emits it: per gram family — the words',
// then the chars' — every gram id in ascending order as a little-endian
// 8-byte word, then each one's count as a uvarint in the same order, all in
// one array of exact size, about nine bytes an entry, beside the totals and
// frequencies. The corpus counters add it in by id (VocabBuilder.Add) and a
// Dictionary numbers it (NumberInto) into the NumberedDoc a matcher holds;
// kept whole, it is how a by-alias query's extraction passes from one
// generation of a serving index to the next. It names grams by id, not by
// a dictionary's numbers, so no change of corpus invalidates it. Immutable;
// safe for concurrent use.
type PackedDoc struct {
	data         []byte
	charsAt      int // where the char family begins in data
	words, chars int // the families' entry counts
	// WordTotal and CharTotal are the occurrences each family counts: the
	// sum of its counts.
	WordTotal  int
	CharTotal  int
	Freq       [NumFreqFeatures]float64
	TotalChars int
}

// pack sets p's families to the word grams wordIDs, ascending, counted
// wordCounts times, and the char grams likewise, in one array of their exact
// size, and the totals to the counts' sums.
func (p *PackedDoc) pack(wordIDs, wordCounts, charIDs, charCounts []uint64) {
	size, totals := 8*(len(wordIDs)+len(charIDs)), [2]int{}
	for f, counts := range [...][]uint64{wordCounts, charCounts} {
		for _, c := range counts {
			size += uvarintSize(c)
			totals[f] += int(c)
		}
	}
	p.data = appendFamily(make([]byte, 0, size), wordIDs, wordCounts)
	p.charsAt = len(p.data)
	p.data = appendFamily(p.data, charIDs, charCounts)
	p.words, p.chars = len(wordIDs), len(charIDs)
	p.WordTotal, p.CharTotal = totals[0], totals[1]
}

// appendFamily appends one family to dst: the ids, then the counts.
func appendFamily(dst []byte, ids, counts []uint64) []byte {
	for _, id := range ids {
		dst = binary.LittleEndian.AppendUint64(dst, id)
	}
	for _, c := range counts {
		dst = binary.AppendUvarint(dst, c)
	}
	return dst
}

// Entries returns how many gram entries p holds.
func (p *PackedDoc) Entries() int { return p.words + p.chars }

// family is one gram family of a PackedDoc as it is read: its ids, eight
// bytes each, its counts, and where the next count to read begins.
type family struct {
	ids, counts []byte
	at          int
}

// families returns p's word and char families.
func (p *PackedDoc) families() (words, chars family) {
	w, c := p.data[:p.charsAt], p.data[p.charsAt:]
	return family{ids: w[:8*p.words], counts: w[8*p.words:]}, family{ids: c[:8*p.chars], counts: c[8*p.chars:]}
}

// entries returns how many entries f holds.
func (f *family) entries() int { return len(f.ids) / 8 }

// id returns the id of f's entry k.
func (f *family) id(k int) GramID { return GramID(binary.LittleEndian.Uint64(f.ids[8*k:])) }

// count reads the count of f's next entry, in order. It is small enough to
// inline, so a count under 128, a family's bulk, takes no call.
func (f *family) count() int32 {
	if c := f.counts[f.at]; c < 0x80 {
		f.at++
		return int32(c)
	}
	return f.longCount()
}

// longCount reads a count of more than one byte.
func (f *family) longCount() int32 {
	c, n := binary.Uvarint(f.counts[f.at:])
	f.at += n
	return int32(c)
}

// The id sort orders by an id's top 24 bits in two radix passes of 12, then
// finishes what those bits leave unordered.
const (
	radixBits = 12
	radixMask = 1<<radixBits - 1
	sortShift = 64 - 2*radixBits
)

// runLength turns one gram family's occurrence ids, sorted, into its
// distinct ids, in place at the front of ids, and how often each occurs, at
// the same positions of counts, which must be as long; it returns how many
// distinct ids there are.
func runLength(ids, counts []uint64) int {
	n := 0
	for i := 0; i < len(ids); n++ {
		j := i + 1
		for j < len(ids) && ids[j] == ids[i] {
			j++
		}
		ids[n], counts[n] = ids[i], uint64(j-i)
		i = j
	}
	return n
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
