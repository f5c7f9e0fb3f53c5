package features

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// cacheDictionary is the dictionary of texts extracted under cfg.
func cacheDictionary(t testing.TB, cfg Config, texts []string) *Dictionary {
	docs := make([]*SortedDoc, len(texts))
	for i, text := range texts {
		docs[i] = Extract(text, cfg)
	}
	return dictionaryOf(t, docs...)
}

func TestDocCacheMatchesDirectExtract(t *testing.T) {
	cfg := FinalConfig()
	texts := []string{
		"the quick brown fox jumps over the lazy dog, twice even!",
		"an entirely different document with: punctuation; and 123 digits",
		"",
	}
	dict := cacheDictionary(t, cfg, texts)
	c := NewDocCache(cfg, texts, dict)
	for i, text := range texts {
		if c.Cached(i) {
			t.Fatalf("entry %d extracted before first Get", i)
		}
		got := c.Get(i)
		if want := dict.Number(Extract(text, cfg)); !reflect.DeepEqual(got, want) {
			t.Fatalf("entry %d: cached doc differs from direct Extract and Number", i)
		}
		if !c.Cached(i) {
			t.Fatalf("entry %d not cached after Get", i)
		}
		if c.Get(i) != got {
			t.Fatalf("entry %d: repeat Get returned a different pointer", i)
		}
	}
}

func TestDocCacheConcurrentGetCanonical(t *testing.T) {
	texts := make([]string, 8)
	for i := range texts {
		texts[i] = fmt.Sprintf("document number %d with some shared words and its own marker m%dx", i, i)
	}
	c := NewDocCache(ReductionConfig(), texts, cacheDictionary(t, ReductionConfig(), texts))
	const goroutines = 16
	ptrs := make([][]*NumberedDoc, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ptrs[g] = make([]*NumberedDoc, len(texts))
			for i := range texts {
				ptrs[g][i] = c.Get(i)
			}
		}(g)
	}
	wg.Wait()
	for i := range texts {
		for g := 1; g < goroutines; g++ {
			if ptrs[g][i] != ptrs[0][i] {
				t.Fatalf("entry %d: goroutines observed different canonical docs", i)
			}
		}
	}
}
