package features

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

func TestDocCacheMatchesDirectExtract(t *testing.T) {
	cfg := FinalConfig()
	texts := []string{
		"the quick brown fox jumps over the lazy dog, twice even!",
		"an entirely different document with: punctuation; and 123 digits",
		"",
	}
	c := NewDocCache(cfg, texts)
	for i, text := range texts {
		if c.Cached(i) {
			t.Fatalf("entry %d extracted before first Get", i)
		}
		got := c.Get(i)
		if !reflect.DeepEqual(got, Extract(text, cfg)) {
			t.Fatalf("entry %d: cached doc differs from direct Extract", i)
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
	c := NewDocCache(ReductionConfig(), texts)
	const goroutines = 16
	ptrs := make([][]*SortedDoc, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ptrs[g] = make([]*SortedDoc, len(texts))
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
