package features

import (
	"fmt"
	"reflect"
	"testing"
)

// shardTestDocs extracts documents from synthetic texts varied enough to
// produce frequency ties (which the deterministic gram-id tiebreak must
// resolve identically however the counts were accumulated).
func shardTestDocs(n int) []*mapDoc {
	cfg := ReductionConfig()
	texts := []string{
		"the quick brown fox jumps over the lazy dog near the river bank",
		"shipping was fast and the quality was exactly as described would buy again",
		"payment sent yesterday please confirm the order and update the tracking",
		"does anyone know a reliable vendor for this kind of product around here",
		"the package arrived safely and the stealth was better than expected thanks",
	}
	docs := make([]*mapDoc, n)
	for i := range docs {
		docs[i] = mapExtract(fmt.Sprintf("%s extra token%d", texts[i%len(texts)], i%7), cfg)
	}
	return docs
}

func mustMerge(t *testing.T, into, from *VocabBuilder) {
	t.Helper()
	if err := into.Merge(from); err != nil {
		t.Fatal(err)
	}
}

// TestVocabShardMergeMatchesSequential pins shard-then-Merge to the single
// sequential builder: identical builder state (counters and doc counts) and
// an identical built Vocabulary, for several shard counts and regardless of
// merge order.
func TestVocabShardMergeMatchesSequential(t *testing.T) {
	cfg := ReductionConfig()
	docs := shardTestDocs(53)

	seq := NewVocabBuilder(cfg)
	for _, d := range docs {
		seq.AddSorted(d.Sorted())
	}
	want := mustBuild(t, seq)

	for _, shards := range []int{2, 3, 8} {
		builders := make([]*VocabBuilder, shards)
		for s := range builders {
			builders[s] = NewVocabBuilder(cfg)
		}
		for i, d := range docs {
			builders[i%shards].AddSorted(d.Sorted())
		}
		merged := builders[0]
		for _, b := range builders[1:] {
			mustMerge(t, merged, b)
		}
		if !reflect.DeepEqual(mustState(t, merged), mustState(t, seq)) {
			t.Errorf("shards=%d: merged gram stats diverge from sequential", shards)
		}
		if merged.NumDocs() != seq.NumDocs() {
			t.Errorf("shards=%d: NumDocs = %d, want %d", shards, merged.NumDocs(), seq.NumDocs())
		}
		if got := mustBuild(t, merged); !reflect.DeepEqual(got, want) {
			t.Errorf("shards=%d: merged vocabulary diverges from sequential", shards)
		}
	}

	// Reverse merge order: sums commute, so the result must not change.
	builders := []*VocabBuilder{NewVocabBuilder(cfg), NewVocabBuilder(cfg), NewVocabBuilder(cfg)}
	for i, d := range docs {
		builders[i%3].AddSorted(d.Sorted())
	}
	rev := builders[2]
	mustMerge(t, rev, builders[1])
	mustMerge(t, rev, builders[0])
	if got := mustBuild(t, rev); !reflect.DeepEqual(got, want) {
		t.Errorf("reverse merge order diverges from sequential build")
	}
}

// TestVocabMergeEmpty checks the degenerate shards: merging an empty
// builder is a no-op, and merging into an empty builder copies the other.
func TestVocabMergeEmpty(t *testing.T) {
	cfg := ReductionConfig()
	docs := shardTestDocs(5)

	seq := NewVocabBuilder(cfg)
	for _, d := range docs {
		seq.AddSorted(d.Sorted())
	}
	want := mustBuild(t, seq)

	withEmpty := NewVocabBuilder(cfg)
	for _, d := range docs {
		withEmpty.AddSorted(d.Sorted())
	}
	mustMerge(t, withEmpty, NewVocabBuilder(cfg))
	if got := mustBuild(t, withEmpty); !reflect.DeepEqual(got, want) {
		t.Errorf("merging an empty builder changed the result")
	}

	intoEmpty := NewVocabBuilder(cfg)
	mustMerge(t, intoEmpty, withEmpty)
	if got := mustBuild(t, intoEmpty); !reflect.DeepEqual(got, want) {
		t.Errorf("merging into an empty builder diverges")
	}
}
