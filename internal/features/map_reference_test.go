package features

import (
	"cmp"
	"slices"

	"darklight/internal/lemma"
	"darklight/internal/tokenize"
)

// mapDoc is the hash-map document Extract used to count into, kept as the
// tests' reference the way refBuilder is: two maps of counters, flattened by
// a comparison sort. It shares the hashing with Extract (HashGram, mix) and
// nothing of the emitting, sorting or counting.
type mapDoc struct {
	WordGrams  map[GramID]int
	CharGrams  map[GramID]int
	WordTotal  int
	CharTotal  int
	Freq       [NumFreqFeatures]float64
	TotalChars int
}

// mapExtract is Extract by its definition: one map increment per gram
// occurrence.
func mapExtract(text string, cfg Config) *mapDoc {
	d := &mapDoc{WordGrams: make(map[GramID]int), CharGrams: make(map[GramID]int)}
	words := tokenize.Words(text)
	if cfg.Lemmatize {
		words = lemma.LemmatizeAll(words)
	}
	for n := cfg.WordMin; n <= cfg.WordMax; n++ {
		for i := 0; i+n <= len(words); i++ {
			h := uint64(HashGram(words[i]))
			for _, w := range words[i+1 : i+n] {
				h = mix(h, uint64(HashGram(w)))
			}
			d.WordGrams[GramID(h)]++
			d.WordTotal++
		}
	}
	// Rune start offsets, and the end of the text: gram i of order n is
	// text[starts[i]:starts[i+n]].
	var starts []int
	for i := range text {
		starts = append(starts, i)
	}
	starts = append(starts, len(text))
	for n := max(cfg.CharMin, 1); n <= min(cfg.CharMax, maxCharOrder); n++ {
		for i := 0; i+n < len(starts); i++ {
			d.CharGrams[HashGram(text[starts[i]:starts[i+n]])]++
			d.CharTotal++
		}
	}
	if cfg.IncludeFreq {
		extractFreq(text, &d.Freq, &d.TotalChars)
	}
	return d
}

// packed flattens the maps into the one extracted form.
func (d *mapDoc) packed() *PackedDoc {
	flat := func(m map[GramID]int) []gramEntry {
		out := make([]gramEntry, 0, len(m))
		for g, c := range m {
			out = append(out, gramEntry{ID: g, Count: int32(c)})
		}
		slices.SortFunc(out, func(a, b gramEntry) int { return cmp.Compare(a.ID, b.ID) })
		return out
	}
	p := packGrams(flat(d.WordGrams), flat(d.CharGrams))
	p.WordTotal, p.CharTotal, p.Freq, p.TotalChars = d.WordTotal, d.CharTotal, d.Freq, d.TotalChars
	return p
}

// gramEntry is one (gram id, count) pair of a document's gram family.
type gramEntry struct {
	ID    GramID
	Count int32
}

// gramsOf decodes d's word and char families.
func gramsOf(d *PackedDoc) (words, chars []gramEntry) {
	decode := func(f family) []gramEntry {
		var out []gramEntry
		for k := range f.entries() {
			out = append(out, gramEntry{ID: f.id(k), Count: f.count()})
		}
		return out
	}
	w, c := d.families()
	return decode(w), decode(c)
}

// packGrams is the document of the word and char grams given, ascending by
// id, its totals the sums of their counts.
func packGrams(words, chars []gramEntry) *PackedDoc {
	split := func(es []gramEntry) (ids, counts []uint64) {
		for _, e := range es {
			ids, counts = append(ids, uint64(e.ID)), append(counts, uint64(e.Count))
		}
		return ids, counts
	}
	wordIDs, wordCounts := split(words)
	charIDs, charCounts := split(chars)
	d := new(PackedDoc)
	d.pack(wordIDs, wordCounts, charIDs, charCounts)
	return d
}

// gramCount looks id up in an id-sorted gram list; 0 when it is not there.
func gramCount(es []gramEntry, id GramID) int {
	i, ok := slices.BinarySearchFunc(es, id, func(e gramEntry, id GramID) int { return cmp.Compare(e.ID, id) })
	if !ok {
		return 0
	}
	return int(es[i].Count)
}
