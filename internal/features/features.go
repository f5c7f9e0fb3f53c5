// Package features implements the stylometric feature extraction of §IV-A
// and Table II of the paper: word 1–3-grams and character 1–5-grams over
// lemmatised text, plus the frequencies of punctuation marks, digits, and
// special characters. N-grams are ranked by corpus frequency, the top N
// are kept as the vocabulary, and per-document weights are TF-IDF.
//
// N-grams are identified by a 64-bit FNV-1a hash rather than by string —
// feature hashing. At 64 bits, collisions across even a million distinct
// grams are vanishingly rare (birthday bound ≈ 2.7e-8), and extraction
// avoids a string allocation per gram, which is what makes the single-CPU
// experiment sweeps feasible. The hash is fixed (not seeded per process)
// so runs are reproducible.
//
// Extract emits a document as a PackedDoc: per gram family its distinct
// gram ids in ascending order, then their counts — occurrence ids into one
// slice, a radix sort, a run-length count — which the corpus counters merge
// in. Numbered by the corpus's Dictionary (a gram's position in the
// counters' ascending id list), it becomes the NumberedDoc a matcher holds,
// a snapshot stores, the vectorizer reads through a feature table and the
// per-query candidate vocabulary counts, so there is no hash map anywhere
// between a text and its vector.
//
// The package is deliberately two-pass friendly: extraction (Extract) is
// cheap and repeatable, so callers keep only compact sparse vectors and
// rebuild vocabularies over candidate subsets — exactly what the paper's
// second cosine-similarity stage requires.
package features

import (
	"fmt"
	"sync"
	"unicode/utf8"

	"darklight/internal/lemma"
	"darklight/internal/tokenize"
)

// Config selects the feature-space shape. Table II of the paper defines two
// instances: the space-reduction configuration and the final (second-stage)
// configuration.
type Config struct {
	// WordMin..WordMax are the word n-gram orders (paper: 1..3).
	WordMin, WordMax int
	// CharMin..CharMax are the character n-gram orders (paper: 1..5).
	CharMin, CharMax int
	// MaxWordGrams is the vocabulary budget for word n-grams
	// (paper: 60,000 reduction / 50,000 final).
	MaxWordGrams int
	// MaxCharGrams is the vocabulary budget for char n-grams
	// (paper: 30,000 reduction / 15,000 final).
	MaxCharGrams int
	// Lemmatize runs the lemmatiser before word n-gram extraction.
	Lemmatize bool
	// IncludeFreq adds the 42 punctuation/digit/special-char frequency
	// dimensions (11 + 10 + 21, Table II).
	IncludeFreq bool
}

// ReductionConfig returns the Table II "Space Reduction" column.
func ReductionConfig() Config {
	return Config{
		WordMin: 1, WordMax: 3,
		CharMin: 1, CharMax: 5,
		MaxWordGrams: 60000,
		MaxCharGrams: 30000,
		Lemmatize:    true,
		IncludeFreq:  true,
	}
}

// FinalConfig returns the Table II "Final" column, used when rescoring the
// k candidates.
func FinalConfig() Config {
	cfg := ReductionConfig()
	cfg.MaxWordGrams = 50000
	cfg.MaxCharGrams = 15000
	return cfg
}

// SameExtraction reports whether c and o produce identical Extract output
// for every text. The vocabulary budgets (MaxWordGrams, MaxCharGrams) are
// selection-time parameters consumed by VocabBuilder.Build — Extract never
// reads them — while every other field changes the raw counts. The
// attribution layer requires it of its two configs, so both stages read one
// extraction: the paper's reduction and final configs differ only in their
// budgets.
func (c Config) SameExtraction(o Config) bool {
	c.MaxWordGrams, c.MaxCharGrams = 0, 0
	o.MaxWordGrams, o.MaxCharGrams = 0, 0
	return c == o
}

// maxCharOrder is the longest char n-gram the extractor's offset ring holds.
const maxCharOrder = 16

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.WordMin < 1 || c.WordMax < c.WordMin:
		return fmt.Errorf("features: invalid word n-gram range [%d,%d]", c.WordMin, c.WordMax)
	case c.CharMin < 1 || c.CharMax < c.CharMin || c.CharMax > maxCharOrder:
		return fmt.Errorf("features: invalid char n-gram range [%d,%d] (orders run 1..%d)", c.CharMin, c.CharMax, maxCharOrder)
	case c.MaxWordGrams < 0 || c.MaxCharGrams < 0:
		return fmt.Errorf("features: negative vocabulary budget")
	}
	return nil
}

// Frequency feature character sets (Table II: 11 punctuation marks, 10
// digits, 21 special characters).
const (
	punctChars   = `.,:;!?'"-()`
	digitChars   = "0123456789"
	specialChars = "@#$%^&*+=/\\|<>[]{}~`_"
)

// NumFreqFeatures is the number of frequency dimensions (11 + 10 + 21).
const NumFreqFeatures = len(punctChars) + len(digitChars) + len(specialChars)

// GramID is the 64-bit hash identifying one n-gram.
type GramID uint64

// HashGram returns the feature id of a gram given as a string. Exposed for
// tests and for tools that need to look up a specific gram.
func HashGram(s string) GramID {
	h := uint64(fnvOffset)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return GramID(h)
}

// The 64-bit FNV-1a parameters.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// idBuffers recycles what Extract counts through — the occurrence ids of
// both families, and the id sort's second buffer, which holds the counts
// once the ids are sorted — most of what an extraction allocates and garbage
// once packed, so that a burst of extractions (a daemon's first touch of its
// queries, a build's pass 1) does not drive the collector.
var idBuffers sync.Pool // *[]uint64

// Extract computes all raw feature counts for one text under cfg: per gram
// family every occurrence's id goes into one slice, which is sorted and
// run-length counted — no hash map; the id buffers are pooled — and both
// families are packed straight from them into the document's one array.
func Extract(text string, cfg Config) *PackedDoc {
	words := tokenize.Words(text)
	if cfg.Lemmatize {
		words = lemma.LemmatizeAll(words)
	}
	// Pre-hash every word once; n-grams chain the hashes.
	wordHashes := make([]uint64, len(words))
	for i, w := range words {
		wordHashes[i] = uint64(HashGram(w))
	}
	nw := occurrences(len(words), cfg.WordMin, cfg.WordMax)
	nc := occurrences(utf8.RuneCountInString(text), cfg.CharMin, cfg.CharMax)
	buf, _ := idBuffers.Get().(*[]uint64)
	if buf == nil || cap(*buf) < 2*(nw+nc) {
		b := make([]uint64, 2*(nw+nc))
		buf = &b
	}
	defer idBuffers.Put(buf)
	wordIDs, charIDs, counts := (*buf)[:0:nw], (*buf)[nw:nw:nw+nc], (*buf)[nw+nc:2*(nw+nc)]
	for n := cfg.WordMin; n <= cfg.WordMax; n++ {
		wordIDs = appendWordGrams(wordIDs, wordHashes, n)
	}
	charIDs = appendCharGrams(charIDs, text, cfg.CharMin, cfg.CharMax)
	sortIDs(wordIDs, counts)
	sortIDs(charIDs, counts)
	// The word counts land at the front of counts, the char counts from nw,
	// which no word count reaches.
	wordIDs = wordIDs[:runLength(wordIDs, counts)]
	charIDs = charIDs[:runLength(charIDs, counts[nw:])]

	d := new(PackedDoc)
	d.pack(wordIDs, counts[:len(wordIDs)], charIDs, counts[nw:nw+len(charIDs)])
	if cfg.IncludeFreq {
		extractFreq(text, &d.Freq, &d.TotalChars)
	}
	return d
}

// occurrences is the number of n-grams of orders lo..hi in a sequence of
// length items.
func occurrences(items, lo, hi int) int {
	total := 0
	for n := lo; n <= hi; n++ {
		total += max(items-n+1, 0)
	}
	return total
}

// mix combines two 64-bit hashes order-sensitively (an n-gram is a
// sequence, not a set).
func mix(a, b uint64) uint64 {
	a ^= b + 0x9e3779b97f4a7c15 + (a << 6) + (a >> 2)
	a *= 0xff51afd7ed558ccd
	return a ^ (a >> 33)
}

// appendWordGrams appends the id of every word n-gram, chaining the
// pre-computed word hashes.
func appendWordGrams(ids, wordHashes []uint64, n int) []uint64 {
	for i := 0; i+n <= len(wordHashes); i++ {
		h := wordHashes[i]
		for j := 1; j < n; j++ {
			h = mix(h, wordHashes[i+j])
		}
		ids = append(ids, h)
	}
	return ids
}

// appendCharGrams appends the id of every rune n-gram of orders lo..hi — the
// FNV-1a hash of the gram's bytes, HashGram of the gram — in one pass over
// the text: grams[k] is the hash of the k+1 runes ending at the current one,
// which is the hash of the k runes before it extended by this rune's bytes.
// No []rune materialisation, no per-gram allocation, and every byte enters
// hi hashes once instead of being re-read for every gram that covers it.
func appendCharGrams(ids []uint64, text string, lo, hi int) []uint64 {
	lo, hi = max(lo, 1), min(hi, maxCharOrder)
	if lo > hi {
		return ids
	}
	var grams [maxCharOrder]uint64
	for i, runes := 0, 0; i < len(text); runes++ {
		width := 1
		if text[i] >= utf8.RuneSelf {
			_, width = utf8.DecodeRuneInString(text[i:])
		}
		for k := min(runes, hi-1); k >= 0; k-- {
			h := uint64(fnvOffset)
			if k > 0 {
				h = grams[k-1]
			}
			for _, c := range []byte(text[i : i+width]) {
				h = (h ^ uint64(c)) * fnvPrime
			}
			grams[k] = h
		}
		if n := min(runes+1, hi); n >= lo {
			ids = append(ids, grams[lo-1:n]...)
		}
		i += width
	}
	return ids
}

func extractFreq(text string, freq *[NumFreqFeatures]float64, totalChars *int) {
	var counts [128]int
	total := 0
	for _, r := range text {
		if r < 128 {
			counts[r]++
		}
		total++
	}
	*totalChars = total
	if total == 0 {
		return
	}
	i := 0
	for _, set := range []string{punctChars, digitChars, specialChars} {
		for _, c := range set {
			freq[i] = float64(counts[c]) / float64(total)
			i++
		}
	}
}
