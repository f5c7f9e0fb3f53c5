package features

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(*Config)
		wantErr bool
	}{
		{"reduction default", func(c *Config) {}, false},
		{"bad word range", func(c *Config) { c.WordMin = 0 }, true},
		{"inverted word range", func(c *Config) { c.WordMax = c.WordMin - 1 }, true},
		{"bad char range", func(c *Config) { c.CharMin = 0 }, true},
		{"longest char order", func(c *Config) { c.CharMax = maxCharOrder }, false},
		{"char order above the longest", func(c *Config) { c.CharMax = maxCharOrder + 1 }, true},
		{"negative budget", func(c *Config) { c.MaxWordGrams = -1 }, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := ReductionConfig()
			tt.mutate(&cfg)
			if err := cfg.Validate(); (err != nil) != tt.wantErr {
				t.Errorf("Validate err = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestTableIIBudgets(t *testing.T) {
	r, f := ReductionConfig(), FinalConfig()
	if r.MaxWordGrams != 60000 || r.MaxCharGrams != 30000 {
		t.Errorf("reduction budgets = %d/%d", r.MaxWordGrams, r.MaxCharGrams)
	}
	if f.MaxWordGrams != 50000 || f.MaxCharGrams != 15000 {
		t.Errorf("final budgets = %d/%d", f.MaxWordGrams, f.MaxCharGrams)
	}
	if NumFreqFeatures != 42 {
		t.Errorf("NumFreqFeatures = %d, want 42 (11+10+21)", NumFreqFeatures)
	}
}

func TestExtractCounts(t *testing.T) {
	cfg := Config{WordMin: 1, WordMax: 2, CharMin: 1, CharMax: 2, MaxWordGrams: 100, MaxCharGrams: 100, IncludeFreq: true}
	d := Extract("aa bb aa", cfg)

	// Word unigrams: aa×2, bb×1 → 3; bigrams: "aa bb", "bb aa" → 2.
	if d.WordTotal != 5 {
		t.Errorf("WordTotal = %d, want 5", d.WordTotal)
	}
	if got := gramCount(d.WordGrams, HashGram("aa")); got != 2 {
		t.Errorf("count(aa) = %d, want 2", got)
	}
	if got := gramCount(d.WordGrams, WordGramID("aa", "bb")); got != 1 {
		t.Errorf("count(aa bb) = %d, want 1", got)
	}
	// Char unigrams: 8 chars; bigrams: 7 windows → 15.
	if d.CharTotal != 15 {
		t.Errorf("CharTotal = %d, want 15", d.CharTotal)
	}
	if got := gramCount(d.CharGrams, GramID(HashGram("aa"))); got != 2 {
		t.Errorf("char count(aa) = %d, want 2", got)
	}
}

func TestExtractFreqFeatures(t *testing.T) {
	cfg := ReductionConfig()
	d := Extract("a.b.c!", cfg)
	// 6 chars total, two '.', one '!'.
	dotIdx := strings.IndexRune(".,:;!?'\"-()", '.')
	if dotIdx != 0 {
		t.Fatal("test assumes '.' is the first punctuation feature")
	}
	if got := d.Freq[0]; got != 2.0/6.0 {
		t.Errorf("freq('.') = %v, want %v", got, 2.0/6.0)
	}
	if d.TotalChars != 6 {
		t.Errorf("TotalChars = %d", d.TotalChars)
	}
}

func TestExtractLemmatizes(t *testing.T) {
	cfg := ReductionConfig()
	d := Extract("running dogs were", cfg)
	if gramCount(d.WordGrams, HashGram("run")) != 1 || gramCount(d.WordGrams, HashGram("dog")) != 1 || gramCount(d.WordGrams, HashGram("be")) != 1 {
		t.Error("word grams must be lemmatised")
	}
	if gramCount(d.WordGrams, HashGram("running")) != 0 {
		t.Error("inflected form must not appear")
	}
	// Char grams come from the raw text.
	if gramCount(d.CharGrams, GramID(HashGram("runni"))) == 0 {
		t.Error("char grams must come from the original text")
	}
}

func TestExtractUnicodeCharGrams(t *testing.T) {
	cfg := Config{WordMin: 1, WordMax: 1, CharMin: 2, CharMax: 2, IncludeFreq: false}
	d := Extract("héé", cfg)
	// Runes: h, é, é → bigrams "hé", "éé".
	if d.CharTotal != 2 {
		t.Fatalf("CharTotal = %d, want 2", d.CharTotal)
	}
	if gramCount(d.CharGrams, GramID(HashGram("hé"))) != 1 || gramCount(d.CharGrams, GramID(HashGram("éé"))) != 1 {
		t.Error("unicode bigrams wrong")
	}
}

func TestVocabTopNSelection(t *testing.T) {
	cfg := Config{WordMin: 1, WordMax: 1, CharMin: 1, CharMax: 1, MaxWordGrams: 2, MaxCharGrams: 1000, IncludeFreq: false}
	vb := NewVocabBuilder(cfg)
	vb.AddSorted(Extract("apple apple apple banana banana cherry", cfg))
	v := mustBuild(t, vb)
	if v.NumWordGrams() != 2 {
		t.Fatalf("vocab kept %d word grams, want 2", v.NumWordGrams())
	}
	// apple and banana are the top-2; cherry must be out.
	doc := Extract("cherry", cfg)
	vec := v.VectorizeGramsSorted(doc)
	for _, idx := range vec.Idx {
		if idx < 2 {
			t.Error("cherry should not map to a word-gram index")
		}
	}
}

func TestIDFKillsUniversalGrams(t *testing.T) {
	cfg := Config{WordMin: 1, WordMax: 1, CharMin: 1, CharMax: 1, MaxWordGrams: 100, MaxCharGrams: 100, IncludeFreq: false}
	vb := NewVocabBuilder(cfg)
	// "common" appears in every doc; "rare" in one.
	vb.AddSorted(Extract("common rare", cfg))
	for i := 0; i < 9; i++ {
		vb.AddSorted(Extract("common filler", cfg))
	}
	v := mustBuild(t, vb)
	doc := Extract("common rare", cfg)
	vec := v.VectorizeGramsSorted(doc)
	commonW := vec.Get(lookupWordIdx(t, v, "common"))
	rareW := vec.Get(lookupWordIdx(t, v, "rare"))
	if commonW >= rareW {
		t.Errorf("universal gram weight %v must be below rare gram weight %v", commonW, rareW)
	}
}

func lookupWordIdx(t *testing.T, v *Vocabulary, gram string) uint32 {
	t.Helper()
	id := HashGram(gram)
	for _, e := range v.words.byID {
		if e.id == id {
			return e.index
		}
	}
	t.Fatalf("gram %q not in vocabulary", gram)
	return 0
}

func TestVectorizeSortedAndNamespaced(t *testing.T) {
	cfg := ReductionConfig()
	vb := NewVocabBuilder(cfg)
	doc := Extract("the quick brown fox jumps over the lazy dog, again and again! 123", cfg)
	vb.AddSorted(doc)
	v := mustBuild(t, vb)
	vec := v.VectorizeGramsSorted(doc)
	if !vec.IsSorted() || vec.Len() == 0 {
		t.Error("VectorizeGramsSorted must return sorted, non-empty vectors")
	}
	// Grams sit below FreqOffset; the 42 frequency features live there.
	for _, idx := range vec.Idx {
		if idx >= v.FreqOffset() {
			t.Error("gram vectors must stay below the frequency dims")
		}
	}
	if v.FreqOffset() != uint32(v.NumWordGrams()+v.NumCharGrams()) || v.ActivityOffset() != v.FreqOffset()+uint32(NumFreqFeatures) {
		t.Error("frequency features must follow the grams, activity the frequency features")
	}
}

func TestVectorizeGramsExcludesFreq(t *testing.T) {
	cfg := ReductionConfig()
	vb := NewVocabBuilder(cfg)
	doc := Extract("hello, world! 42", cfg)
	vb.AddSorted(doc)
	v := mustBuild(t, vb)
	vec := v.VectorizeGramsSorted(doc)
	for _, idx := range vec.Idx {
		if idx >= v.FreqOffset() {
			t.Fatal("VectorizeGrams must not emit frequency features")
		}
	}
}

func TestEmptyDoc(t *testing.T) {
	cfg := ReductionConfig()
	d := Extract("", cfg)
	if d.WordTotal != 0 || d.CharTotal != 0 {
		t.Error("empty text must yield empty counts")
	}
	vb := NewVocabBuilder(cfg)
	vb.AddSorted(d)
	v := mustBuild(t, vb)
	if got := v.VectorizeGramsSorted(d); got.Len() != 0 {
		t.Errorf("empty doc vector = %v", got)
	}
}

// Property: extraction is deterministic and total counts match the gram
// map sums.
func TestExtractConsistencyProperty(t *testing.T) {
	cfg := Config{WordMin: 1, WordMax: 3, CharMin: 1, CharMax: 5, MaxWordGrams: 1000, MaxCharGrams: 1000, IncludeFreq: true}
	f := func(text string) bool {
		a := Extract(text, cfg)
		b := Extract(text, cfg)
		if a.WordTotal != b.WordTotal || a.CharTotal != b.CharTotal {
			return false
		}
		sum := 0
		for _, e := range a.WordGrams {
			sum += int(e.Count)
		}
		if sum != a.WordTotal {
			return false
		}
		sum = 0
		for _, e := range a.CharGrams {
			sum += int(e.Count)
		}
		return sum == a.CharTotal
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestWordGramIDMatchesExtraction(t *testing.T) {
	cfg := Config{WordMin: 2, WordMax: 2, CharMin: 1, CharMax: 1, IncludeFreq: false, Lemmatize: false}
	d := Extract("alpha beta gamma", cfg)
	if gramCount(d.WordGrams, WordGramID("alpha", "beta")) != 1 {
		t.Error("WordGramID must match Extract's hashing")
	}
	if gramCount(d.WordGrams, WordGramID("beta", "alpha")) != 0 {
		t.Error("n-gram hashing must be order-sensitive")
	}
}
