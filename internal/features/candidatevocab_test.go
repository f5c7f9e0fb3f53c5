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
func referenceDots(voc gramVectorizer, u *PackedDoc, docs []*PackedDoc) (dots []float64, has []bool, uHas bool) {
	uv := voc.VectorizeGrams(u).Normalize()
	for _, d := range docs {
		cv := voc.VectorizeGrams(d).Normalize()
		dots = append(dots, sparse.Dot(uv, cv))
		has = append(has, cv.Len() > 0)
	}
	return dots, has, uv.Len() > 0
}

// dictionaryOf is the dictionary a VocabBuilder fed docs holds.
func dictionaryOf(t testing.TB, docs ...*PackedDoc) *Dictionary {
	b := NewVocabBuilder(FinalConfig())
	for _, d := range docs {
		b.Add(d)
	}
	st := mustState(t, b)
	return NewDictionary(st.Words, st.Chars)
}

// assertDotsMatchReference holds v.Score to referenceDots over voc — the
// vocabulary selected over docs some other way — bit for bit, with u and
// each of the documents themselves as the unknown, all numbered by dict.
func assertDotsMatchReference(t *testing.T, label string, cfg Config, v *CandidateVocab, voc gramVectorizer, dict *Dictionary, docs []*PackedDoc, u *PackedDoc) {
	t.Helper()
	numbered := make([]*NumberedDoc, len(docs))
	for j, d := range docs {
		numbered[j] = dict.Number(d)
	}
	for q, d := range append(docs[:len(docs):len(docs)], u) {
		gotDots, gotHas, gotU := v.Score(cfg, numbered, dict.Number(d))
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
// as the unknown. Every other trial numbers by a dictionary of the
// documents alone, so the probe mixes numbered and unnumbered grams; the
// rest by one that also holds the probe and a document no candidate is,
// so the candidates' numbers have gaps. (The builder is held to the map
// reference on its own, in TestSortedRunBuilderMatchesMapReference;
// TestCountingRankMatchesReference holds the scores to it directly.)
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

		packed := make([]*PackedDoc, 1+rng.Intn(12))
		vb := NewVocabBuilder(cfg)
		for i := range packed {
			packed[i] = randomDoc(rng).packed()
			vb.Add(packed[i])
		}
		probe := randomDoc(rng).packed()
		dict := dictionaryOf(t, packed...)
		if trial%2 == 1 {
			dict = dictionaryOf(t, append(packed, probe, randomDoc(rng).packed())...)
		}
		assertDotsMatchReference(t, fmt.Sprintf("trial %d", trial), cfg, &cv, mustBuild(t, vb), dict, packed, probe)
	}
}

// TestCandidateVocabEmpty covers the zero-candidate case Rescore can hit.
func TestCandidateVocabEmpty(t *testing.T) {
	var cv CandidateVocab
	rng := rand.New(rand.NewSource(1))
	u := randomDoc(rng).packed()
	if dots, has, uHas := cv.Score(FinalConfig(), nil, dictionaryOf(t, u).Number(u)); len(dots) != 0 || len(has) != 0 || uHas {
		t.Fatalf("empty vocabulary scored %v %v %v", dots, has, uHas)
	}
}

// TestCandidateVocabTileEdges holds Score to the reference where the tiled
// count turns over: a dictionary of four tiles and more, documents holding
// the grams numbered at each tile's last and the next tile's first slot
// beside random ones and one tile's every gram, and an unknown mixing
// dictionary grams — the edges included — with grams the dictionary lacks,
// below, between and above its own. A tile no document touches but the
// unknown does lies between two that documents touch.
func TestCandidateVocabTileEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(4096))
	const grams = 4*tileSize + 77
	id := func(num int) GramID { return GramID(7*num + 3) } // gaps for ids the dictionary lacks
	var every []gramEntry
	for num := range grams {
		every = append(every, gramEntry{ID: id(num), Count: 1})
	}
	dict := dictionaryOf(t, packGrams(every, every))
	edges := []int{0, tileSize - 1, tileSize, 2*tileSize - 1, 2*tileSize + 1, 4*tileSize - 1, 4 * tileSize, grams - 1}
	doc := func(nums []int, extra int) *PackedDoc {
		words, chars := make(map[GramID]int), make(map[GramID]int)
		for _, num := range nums {
			words[id(num)] += 1 + rng.Intn(3)
			chars[id(num)] += 1 + rng.Intn(2)
		}
		for range extra {
			num := rng.Intn(grams)
			if num/tileSize == 2 {
				continue // the tile only the unknown touches
			}
			words[id(num)] += 1 + rng.Intn(3)
			chars[id(num)] += 1 + rng.Intn(2)
		}
		return shapeDoc(words, chars).packed()
	}
	var whole []int
	for num := 3 * tileSize; num < 4*tileSize; num++ {
		whole = append(whole, num)
	}
	docs := []*PackedDoc{
		doc([]int{edges[1], edges[2], edges[5], edges[6]}, 300),
		doc([]int{edges[0], edges[1], edges[6], edges[7]}, 2000),
		doc(whole, 50),
		doc(nil, 5),
		doc([]int{edges[2], edges[3], edges[4]}, 0),
	}
	uw, uc := make(map[GramID]int), make(map[GramID]int)
	for _, num := range append(edges, 2*tileSize+5, 2*tileSize+6, 17, 9000, 12000) {
		uw[id(num)] += 2
		uc[id(num)]++
	}
	for _, g := range []GramID{0, 1, id(tileSize) + 1, id(2*tileSize) + 2, id(grams)} {
		uw[g] += 3
		uc[g] += 3
	}
	u := shapeDoc(uw, uc).packed()
	words, _ := gramsOf(u)
	if nw, _ := entriesOf(dict.Number(u)); len(nw) == 0 || len(nw) == len(words) || !slices.ContainsFunc(words[:len(words)-1], func(e gramEntry) bool {
		_, ok := dict.words.Number(e.ID)
		return !ok
	}) {
		t.Fatalf("the unknown's grams %v do not mix grams the dictionary holds with others before its last", words)
	}
	var cv CandidateVocab
	for _, budget := range []int{-1, 1, 100, tileSize + 3, 3 * tileSize} {
		cfg := FinalConfig()
		cfg.MaxWordGrams, cfg.MaxCharGrams = budget, budget/2
		vb := NewVocabBuilder(cfg)
		for _, d := range docs {
			vb.Add(d)
		}
		assertDotsMatchReference(t, fmt.Sprintf("budget %d", budget), cfg, &cv, mustBuild(t, vb), dict, docs, u)
	}
	if spans := len(cv.tiles.spans); spans < 3 {
		t.Fatalf("the documents span %d tiles, want at least 3", spans)
	}
}
