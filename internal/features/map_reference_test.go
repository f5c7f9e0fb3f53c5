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

// Sorted flattens the maps into the one document form.
func (d *mapDoc) Sorted() *SortedDoc {
	flat := func(m map[GramID]int) []GramEntry {
		out := make([]GramEntry, 0, len(m))
		for g, c := range m {
			out = append(out, GramEntry{ID: g, Count: int32(c)})
		}
		slices.SortFunc(out, func(a, b GramEntry) int { return cmp.Compare(a.ID, b.ID) })
		return out
	}
	return &SortedDoc{
		WordGrams:  flat(d.WordGrams),
		CharGrams:  flat(d.CharGrams),
		WordTotal:  d.WordTotal,
		CharTotal:  d.CharTotal,
		Freq:       d.Freq,
		TotalChars: d.TotalChars,
	}
}

// gramCount looks id up in an id-sorted gram list; 0 when it is not there.
func gramCount(es []GramEntry, id GramID) int {
	i, ok := slices.BinarySearchFunc(es, id, func(e GramEntry, id GramID) int { return cmp.Compare(e.ID, id) })
	if !ok {
		return 0
	}
	return int(es[i].Count)
}
