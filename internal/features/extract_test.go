package features

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"darklight/internal/synth"
)

// extractCase is one input of the Extract = map reference comparison: a text
// and the knobs of a Config that change what is counted.
type extractCase struct {
	text                               string
	lemmatize, freq                    bool
	wordMin, wordMax, charMin, charMax int
}

func (c extractCase) config() Config {
	return Config{
		WordMin: c.wordMin, WordMax: c.wordMax, CharMin: c.charMin, CharMax: c.charMax,
		Lemmatize: c.lemmatize, IncludeFreq: c.freq,
	}
}

// assertExtractMatchesMap holds Extract to the map counter on one case: the
// whole SortedDoc, nil-ness of its slices included.
func assertExtractMatchesMap(t *testing.T, c extractCase) {
	t.Helper()
	got, want := Extract(c.text, c.config()), mapExtract(c.text, c.config()).Sorted()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Extract diverges from the map reference on %+v\ngot  %d word / %d char grams (totals %d / %d)\nwant %d word / %d char grams (totals %d / %d)",
			c, len(got.WordGrams), len(got.CharGrams), got.WordTotal, got.CharTotal,
			len(want.WordGrams), len(want.CharGrams), want.WordTotal, want.CharTotal)
	}
}

// extractSeeds are the shapes a sort-and-count extractor could get wrong
// where a map cannot: nothing to sort, fewer runes or words than an order,
// every occurrence one id, runes of several bytes, bytes that are no rune.
func extractSeeds() []extractCase {
	texts := []string{
		"",
		"a",
		"ab cd",
		strings.Repeat("a", 5000),
		strings.Repeat("the ", 700),
		"héé wörld — ça va? 日本語のテキスト 😂😂😂 ✌️",
		"broken \xff\xfe utf8 \xc3\x28 tail \xe2\x82",
		"\xff",
		"Running dogs were running, and the dog ran: 1,234.50 @ #42 [ok] {x} ~`_",
	}
	var cases []extractCase
	for _, text := range texts {
		for _, on := range []bool{false, true} {
			cases = append(cases,
				extractCase{text, on, on, 1, 3, 1, 5},
				extractCase{text, on, !on, 2, 2, 4, 4},
				extractCase{text, !on, on, 1, 4, 1, maxCharOrder},
			)
		}
	}
	return cases
}

// TestExtractMatchesMapReference pins the one document form to the hash-map
// counter it replaced: the degenerate shapes above, every char order the
// extractor has alone and as a range, and seeded random texts from the synth
// lexicon at lengths from a sentence to a 1,500-word alias.
func TestExtractMatchesMapReference(t *testing.T) {
	for _, c := range extractSeeds() {
		assertExtractMatchesMap(t, c)
	}
	sample := "It's the 2nd time my order from greenleaf arrived late… not sure why, honestly!! 😅"
	for n := 1; n <= maxCharOrder; n++ {
		assertExtractMatchesMap(t, extractCase{sample, true, true, 1, 3, n, n})
		assertExtractMatchesMap(t, extractCase{sample, false, false, 1, 1, 1, n})
	}
	rng := rand.New(rand.NewSource(26))
	for trial := 0; trial < 240; trial++ {
		style := synth.NewPerson(26, trial, synth.DefaultPersonConfig()).NewStyle("reddit", 0)
		words := []int{1, 12, 120, 1500}[trial%4]
		if words == 1500 && trial%16 != 3 {
			words = 400 // a few full-length aliases are enough
		}
		text := style.GenerateMessage(rng, synth.Topics[trial%len(synth.Topics)], words)
		c := extractCase{text, trial%2 == 0, trial%3 != 0, 1, 1 + rng.Intn(3), 1 + rng.Intn(3), 0}
		c.charMax = c.charMin + rng.Intn(5)
		assertExtractMatchesMap(t, c)
	}
}

// FuzzExtract is the same comparison over whatever text and orders the
// fuzzer finds, seeded with the degenerate shapes.
func FuzzExtract(f *testing.F) {
	for _, c := range extractSeeds() {
		f.Add(c.text, c.lemmatize, c.freq, uint8(c.wordMin-1), uint8(c.wordMax-c.wordMin), uint8(c.charMin-1), uint8(c.charMax-c.charMin))
	}
	f.Fuzz(func(t *testing.T, text string, lemmatize, freq bool, wordLo, wordSpan, charLo, charSpan uint8) {
		// Orders as Validate admits them: 1 ≤ min ≤ max, chars up to the ring.
		c := extractCase{text: text, lemmatize: lemmatize, freq: freq}
		c.wordMin = 1 + int(wordLo)%4
		c.wordMax = c.wordMin + int(wordSpan)%4
		c.charMin = 1 + int(charLo)%maxCharOrder
		c.charMax = c.charMin + int(charSpan)%(maxCharOrder-c.charMin+1)
		if err := c.config().Validate(); err != nil {
			t.Fatalf("orders %+v: %v", c, err)
		}
		assertExtractMatchesMap(t, c)
	})
}
