// Package langdetect identifies the language of short forum messages.
// Polishing step 7 of the paper keeps only English messages; the original
// work used the Python langdetect port of Google's language-detection
// library. This package implements the same idea — a character-n-gram
// naive-Bayes classifier over per-language profiles — with profiles
// trained from embedded seed corpora for eight languages.
package langdetect

import (
	"cmp"
	"math"
	"slices"
	"strings"
	"sync"
	"unicode"
	"unicode/utf8"
)

// Lang is an ISO-639-1 language code.
type Lang string

// Languages with embedded profiles.
const (
	English    Lang = "en"
	Spanish    Lang = "es"
	French     Lang = "fr"
	German     Lang = "de"
	Italian    Lang = "it"
	Portuguese Lang = "pt"
	Dutch      Lang = "nl"
	Romanian   Lang = "ro"
)

// Detection is a scored language guess.
type Detection struct {
	Lang Lang
	// Prob is the normalised posterior across the candidate languages.
	Prob float64
}

// Detector scores text against per-language n-gram profiles.
//
// A Detector is immutable after NewDetector returns: every field — the
// per-language profiles, the scoring table, and the language list — is
// built once and only read afterwards. It is therefore safe for concurrent
// use: one shared Detector can serve any number of goroutines (the parallel
// polishing pipeline fans a single instance out across its workers;
// internal/langdetect's race test pins this).
type Detector struct {
	profiles map[Lang]*profile
	ngram    int

	// The scoring table collapses the per-language profiles into one
	// lookup per trigram. langs is sorted; row r of probs, len(langs)
	// wide, holds each language's log-probability for one gram (the
	// language's floor when it never saw the gram), and row 0 holds the
	// floors themselves, each language's unseen-gram log-probability.
	// slots is an open-addressing table, linearly probed from the top bits
	// of the key's multiplicative hash (64 − shift of them, see slotOf),
	// that maps a gram's packed key (see pack) to the offset of its row; a
	// key of 0 marks an empty slot.
	// Detect adds one row per gram, so scoring probes no string and
	// visits no per-language map.
	langs []Lang
	probs []float64
	slots []slot
	shift uint
}

type slot struct {
	key uint64
	off int
}

type profile struct {
	logProb  map[string]float64
	floorLog float64 // log-probability assigned to unseen n-grams
}

const defaultNGram = 3

var (
	defaultOnce     sync.Once
	defaultDetector *Detector
)

// Default returns the process-wide detector built from the embedded seed
// corpora. Building is done once, lazily.
func Default() *Detector {
	defaultOnce.Do(func() {
		defaultDetector = NewDetector(seedCorpora())
	})
	return defaultDetector
}

// NewDetector trains a detector from raw text per language.
func NewDetector(corpora map[Lang]string) *Detector {
	d := &Detector{profiles: make(map[Lang]*profile, len(corpora)), ngram: defaultNGram}
	for lang, text := range corpora {
		d.profiles[lang] = trainProfile(text, d.ngram)
	}
	d.buildTable()
	return d
}

// buildTable freezes the scoring table from the profiles: the union of
// every profile's grams, each given a row of per-language log-probabilities
// in langs order. The values are exactly the profile values (or the
// profile's floor), so scoring from the table is bit-identical to probing
// each profile map in turn.
func (d *Detector) buildTable() {
	d.langs = make([]Lang, 0, len(d.profiles))
	for l := range d.profiles {
		d.langs = append(d.langs, l)
	}
	slices.Sort(d.langs)
	union := make(map[string]struct{})
	for _, l := range d.langs {
		for g := range d.profiles[l].logProb {
			union[g] = struct{}{}
		}
	}
	// At most a quarter of the slots hold a gram, so a probe rarely goes
	// past the slot it starts at.
	bits := uint(2)
	for 1<<bits < 4*len(union) {
		bits++
	}
	d.shift = 64 - bits
	d.slots = make([]slot, 1<<bits)
	width := len(d.langs)
	d.probs = make([]float64, width, (len(union)+1)*width)
	for i, l := range d.langs {
		d.probs[i] = d.profiles[l].floorLog
	}
	for g := range union {
		off := len(d.probs)
		for i, l := range d.langs {
			lp, ok := d.profiles[l].logProb[g]
			if !ok {
				lp = d.probs[i]
			}
			d.probs = append(d.probs, lp)
		}
		var key uint64
		for _, r := range g {
			key = pack(key, r)
		}
		s := d.slotOf(key)
		for d.slots[s].key != 0 {
			s = (s + 1) & uint64(len(d.slots)-1)
		}
		d.slots[s] = slot{key, off}
	}
}

// pack shifts rune r into a window key that holds the last three runes 21
// bits each. Every rune fits in 21 bits, and a gram's runes are letters,
// apostrophes or spaces, never 0, so no gram's key is 0.
func pack(key uint64, r rune) uint64 {
	return (key<<21 | uint64(r)) & (1<<63 - 1)
}

// slotOf is the slot a key's probe starts at: the top bits of its
// multiplicative (Fibonacci) hash, which depend on every bit of the key.
func (d *Detector) slotOf(key uint64) uint64 {
	return key * 0x9e3779b97f4a7c15 >> d.shift
}

// row returns the log-probabilities of the gram with the given key, or the
// floors when no language saw it.
func (d *Detector) row(key uint64) []float64 {
	width := len(d.langs)
	mask := uint64(len(d.slots) - 1)
	for s := d.slotOf(key); ; s = (s + 1) & mask {
		switch d.slots[s].key {
		case key:
			off := d.slots[s].off
			return d.probs[off : off+width : off+width]
		case 0:
			return d.probs[:width:width]
		}
	}
}

func trainProfile(text string, n int) *profile {
	counts := make(map[string]int)
	total := 0
	for _, gram := range ngrams(normalize(text), n) {
		counts[gram]++
		total++
	}
	// Laplace smoothing with vocabulary = observed grams + 1 slot for unseen.
	vocab := len(counts) + 1
	p := &profile{logProb: make(map[string]float64, len(counts))}
	denom := float64(total + vocab)
	for gram, c := range counts {
		p.logProb[gram] = math.Log(float64(c+1) / denom)
	}
	p.floorLog = math.Log(1 / denom)
	return p
}

// normalize lowercases, collapses whitespace to single spaces, and drops
// digits and symbols — the signal is in letters and word shapes.
func normalize(text string) string {
	var b strings.Builder
	b.Grow(len(text))
	lastSpace := true
	for _, r := range strings.ToLower(text) {
		switch {
		case unicode.IsLetter(r) || r == '\'':
			b.WriteRune(r)
			lastSpace = false
		default:
			if !lastSpace {
				b.WriteByte(' ')
				lastSpace = true
			}
		}
	}
	return strings.TrimSpace(b.String())
}

func ngrams(s string, n int) []string {
	runes := []rune(" " + s + " ")
	if len(runes) < n {
		return nil
	}
	out := make([]string, 0, len(runes)-n+1)
	for i := 0; i+n <= len(runes); i++ {
		out = append(out, string(runes[i:i+n]))
	}
	return out
}

// scored is one language's length-normalised log-likelihood.
type scored struct {
	lang Lang
	ll   float64
}

// rank scores text into scores, one entry per language, sorted by
// descending mean log-likelihood (ties by language). It reports false,
// leaving scores unsorted, when the text has no gram.
//
// The text is read once: each rune is lowercased, kept when it is a letter
// or an apostrophe and otherwise folded into a single space, and the
// window of the last three kept runes is scored as it slides — exactly
// the grams of " " + normalize(text) + " ", in that order, adding the same
// log-probabilities to the same sums. No lowercased or normalised copy of
// the text is built.
func (d *Detector) rank(text string, scores []scored) bool {
	for i, l := range d.langs {
		scores[i] = scored{l, 0}
	}
	// The window starts with the leading space; lastSpace collapses every
	// run of dropped runes into one space and drops those before the first
	// kept rune.
	key, runes, lastSpace := pack(0, ' '), 1, true
	add := func(r rune) {
		key = pack(key, r)
		if runes++; runes >= d.ngram {
			row := d.row(key)
			for i, s := range scores[:len(row)] {
				scores[i].ll = s.ll + row[i]
			}
		}
	}
	for i := 0; i < len(text); {
		r, size := rune(text[i]), 1
		if r < utf8.RuneSelf {
			if 'A' <= r && r <= 'Z' {
				r += 'a' - 'A'
			}
		} else {
			r, size = utf8.DecodeRuneInString(text[i:])
			r = unicode.ToLower(r)
		}
		i += size
		switch {
		case 'a' <= r && r <= 'z' || r == '\'' || r >= utf8.RuneSelf && unicode.IsLetter(r):
			add(r)
			lastSpace = false
		case !lastSpace:
			add(' ')
			lastSpace = true
		}
	}
	// The trailing space: normalize trims the one a dropped run may have
	// left, and the padding adds one back.
	if !lastSpace {
		add(' ')
	}
	grams := runes - d.ngram + 1
	if grams <= 0 || len(scores) == 0 {
		return false
	}
	for i := range scores {
		// Length-normalise so long messages don't overflow and short ones
		// remain comparable.
		scores[i].ll /= float64(grams)
	}
	slices.SortFunc(scores, func(a, b scored) int {
		if a.ll != b.ll {
			return cmp.Compare(b.ll, a.ll)
		}
		return cmp.Compare(a.lang, b.lang)
	})
	return true
}

// Softmax over per-gram average log-likelihoods. The temperature sharpens
// the distribution; per-gram averages are close together so raw softmax
// would be nearly uniform.
const temperature = 0.05

// weight is a score's unnormalised posterior against the best score.
func weight(s scored, best float64) float64 {
	return math.Exp((s.ll - best) / temperature)
}

// weightSum is the softmax denominator of ranked scores, summed in their
// sorted order.
func weightSum(scores []scored) float64 {
	sum := 0.0
	for _, s := range scores {
		sum += weight(s, scores[0].ll)
	}
	return sum
}

// Detect returns language guesses ordered by posterior probability.
// Empty or letter-free text yields no detections.
func (d *Detector) Detect(text string) []Detection {
	scores := make([]scored, len(d.langs))
	if !d.rank(text, scores) {
		return nil
	}
	sum := weightSum(scores)
	out := make([]Detection, len(scores))
	for i, s := range scores {
		out[i] = Detection{Lang: s.lang, Prob: weight(s, scores[0].ll) / sum}
	}
	return out
}

// DetectLang returns the single most likely language and its posterior —
// Detect's first guess, ranked in scratch on the stack for up to 16
// languages. ok is false when the text carries no usable signal.
func (d *Detector) DetectLang(text string) (Lang, float64, bool) {
	var buf [16]scored
	scores := buf[:min(len(d.langs), len(buf))]
	if len(d.langs) > len(buf) {
		scores = make([]scored, len(d.langs))
	}
	if !d.rank(text, scores) {
		return "", 0, false
	}
	// The best score's own weight is exp(0) = 1.
	return scores[0].lang, 1 / weightSum(scores), true
}

// IsEnglish reports whether text is detected as English with posterior at
// least minProb. Messages with no signal are treated as non-English, which
// matches the conservative filtering of the paper's polishing step.
func (d *Detector) IsEnglish(text string, minProb float64) bool {
	lang, prob, ok := d.DetectLang(text)
	return ok && lang == English && prob >= minProb
}
