package features

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"darklight/internal/sparse"
)

// BuildCandidateVocab and VectorizeGrams are the allocating forms of Reset
// and VectorizeGramsInto the reference comparisons are written against;
// the matcher itself only ever reuses pooled storage. Like
// Vocabulary.VectorizeGramsSorted, an empty result has empty, not nil, slices.
func BuildCandidateVocab(cfg Config, docs []*SortedDoc) *CandidateVocab {
	v := new(CandidateVocab)
	v.Reset(cfg, docs)
	return v
}

func (v *CandidateVocab) VectorizeGrams(d *SortedDoc) sparse.Vector {
	vec := sparse.Vector{Idx: []uint32{}, Val: []float64{}}
	v.VectorizeGramsInto(&vec, d)
	return vec
}

// randomDoc builds a synthetic document from a small gram-id pool so that
// cross-document overlaps and frequency ties are common — the cases where
// selection order and tie-breaking could drift between implementations.
func randomDoc(rng *rand.Rand) *mapDoc {
	d := &mapDoc{
		WordGrams: make(map[GramID]int),
		CharGrams: make(map[GramID]int),
	}
	for i, n := 0, rng.Intn(40); i < n; i++ {
		g := GramID(rng.Intn(60))
		c := 1 + rng.Intn(4)
		d.WordGrams[g] += c
		d.WordTotal += c
	}
	for i, n := 0, rng.Intn(80); i < n; i++ {
		g := GramID(1000 + rng.Intn(120))
		c := 1 + rng.Intn(3)
		d.CharGrams[g] += c
		d.CharTotal += c
	}
	for i := range d.Freq {
		if rng.Intn(4) == 0 {
			d.Freq[i] = rng.Float64()
		}
	}
	d.TotalChars = 100 + rng.Intn(400)
	return d
}

// TestCandidateVocabMatchesVocabBuilder pins the per-query vocabulary to the
// corpus builder's: same gram selection, same index assignment, and
// bit-identical vectors, across gram budgets that keep everything, truncate
// hard, or keep nothing. (Each is held to the map reference on its own, in
// TestCountingRankMatchesReference and
// TestSortedRunBuilderMatchesMapReference.)
func TestCandidateVocabMatchesVocabBuilder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		cfg := FinalConfig()
		switch trial % 4 {
		case 0: // generous budgets: nothing truncated
			cfg.MaxWordGrams, cfg.MaxCharGrams = 10000, 10000
		case 1: // tight budgets: heavy truncation through the tie region
			cfg.MaxWordGrams, cfg.MaxCharGrams = 1+rng.Intn(10), 1+rng.Intn(20)
		case 2: // zero budgets
			cfg.MaxWordGrams, cfg.MaxCharGrams = 0, 0
		case 3: // negative budgets mean unlimited
			cfg.MaxWordGrams, cfg.MaxCharGrams = -1, -1
		}

		docs := make([]*mapDoc, 1+rng.Intn(12))
		sorted := make([]*SortedDoc, len(docs))
		vb := NewVocabBuilder(cfg)
		for i := range docs {
			docs[i] = randomDoc(rng)
			sorted[i] = docs[i].Sorted()
			vb.AddSorted(sorted[i])
		}
		ref := mustBuild(t, vb)
		cv := BuildCandidateVocab(cfg, sorted)

		if cv.NumWordGrams() != ref.NumWordGrams() || cv.NumCharGrams() != ref.NumCharGrams() {
			t.Fatalf("trial %d: vocab sizes differ: fast %d/%d vs ref %d/%d",
				trial, cv.NumWordGrams(), cv.NumCharGrams(), ref.NumWordGrams(), ref.NumCharGrams())
		}
		// Vectorize both the corpus docs and an unseen probe document.
		probe := randomDoc(rng)
		for j, d := range append(docs, probe) {
			want := ref.VectorizeGramsSorted(d.Sorted())
			got := cv.VectorizeGrams(d.Sorted())
			if !reflect.DeepEqual(fmt.Sprint(want), fmt.Sprint(got)) {
				t.Fatalf("trial %d doc %d: vectors differ\nfast: %v\nref:  %v", trial, j, got, want)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("trial %d doc %d: vectors not bit-identical", trial, j)
			}
		}
	}
}

// TestCandidateVocabEmpty covers the zero-candidate case Rescore can hit.
func TestCandidateVocabEmpty(t *testing.T) {
	cv := BuildCandidateVocab(FinalConfig(), nil)
	if cv.NumWordGrams() != 0 || cv.NumCharGrams() != 0 {
		t.Fatalf("empty corpus produced a non-empty vocabulary")
	}
	rng := rand.New(rand.NewSource(1))
	vec := cv.VectorizeGrams(randomDoc(rng).Sorted())
	if vec.Len() != 0 {
		t.Fatalf("empty vocabulary vectorized to %d entries", vec.Len())
	}
}
