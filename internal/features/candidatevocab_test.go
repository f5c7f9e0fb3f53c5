package features

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"darklight/internal/sparse"
)

// referenceDots is what Score's sweeps replaced: vectorize u and every
// document over voc, sort and normalise the vectors, then sparse.Dot each
// pair.
func referenceDots(voc *Vocabulary, u *SortedDoc, docs []*SortedDoc) (dots []float64, has []bool, uHas bool) {
	uv := voc.VectorizeGramsSorted(u).Normalize()
	for _, d := range docs {
		cv := voc.VectorizeGramsSorted(d).Normalize()
		dots = append(dots, sparse.Dot(uv, cv))
		has = append(has, cv.Len() > 0)
	}
	return dots, has, uv.Len() > 0
}

// assertDotsMatchReference holds v.Score to referenceDots over voc — the
// vocabulary selected over docs some other way — bit for bit, with u and
// each of the documents themselves as the unknown.
func assertDotsMatchReference(t *testing.T, label string, cfg Config, v *CandidateVocab, voc *Vocabulary, docs []*SortedDoc, u *SortedDoc) {
	t.Helper()
	for q, d := range append(docs[:len(docs):len(docs)], u) {
		gotDots, gotHas, gotU := v.Score(cfg, docs, d)
		wantDots, wantHas, wantU := referenceDots(voc, d, docs)
		if gotU != wantU || !slices.Equal(gotHas, wantHas) || len(gotDots) != len(wantDots) {
			t.Fatalf("%s: unknown %d: presence %v %v, reference %v %v", label, q, gotU, gotHas, wantU, wantHas)
		}
		for j := range wantDots {
			if math.Float64bits(gotDots[j]) != math.Float64bits(wantDots[j]) {
				t.Fatalf("%s: unknown %d document %d: dot %x, reference %x", label, q, j,
					math.Float64bits(gotDots[j]), math.Float64bits(wantDots[j]))
			}
		}
	}
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

// TestCandidateVocabMatchesVocabBuilder pins the per-query scores to the
// corpus builder's vocabulary: the same gram selection, index assignment and
// IDF, so bit-identical dots, across gram budgets that keep everything,
// truncate hard, or keep nothing, with every document and an unseen probe
// as the unknown. (The builder is held to the map reference on its own, in
// TestSortedRunBuilderMatchesMapReference; TestCountingRankMatchesReference
// holds the scores to it directly.)
func TestCandidateVocabMatchesVocabBuilder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var cv CandidateVocab
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

		sorted := make([]*SortedDoc, 1+rng.Intn(12))
		vb := NewVocabBuilder(cfg)
		for i := range sorted {
			sorted[i] = randomDoc(rng).Sorted()
			vb.AddSorted(sorted[i])
		}
		assertDotsMatchReference(t, fmt.Sprintf("trial %d", trial), cfg, &cv, mustBuild(t, vb), sorted, randomDoc(rng).Sorted())
	}
}

// TestCandidateVocabEmpty covers the zero-candidate case Rescore can hit.
func TestCandidateVocabEmpty(t *testing.T) {
	var cv CandidateVocab
	rng := rand.New(rand.NewSource(1))
	if dots, has, uHas := cv.Score(FinalConfig(), nil, randomDoc(rng).Sorted()); len(dots) != 0 || len(has) != 0 || uHas {
		t.Fatalf("empty vocabulary scored %v %v %v", dots, has, uHas)
	}
}
