package features

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"darklight/internal/sparse"
)

// cvEntry is one selected gram of a cut in id-sorted form: its gram id,
// feature index and IDF weight.
type cvEntry struct {
	id    GramID
	index uint32
	idf   float64
}

// refVocab is a vocabulary as two id-sorted tables of its selected grams —
// the form a Vocabulary held before its feature table by dictionary number —
// vectorized by mergeVectorize, the id merge the number path replaced.
type refVocab struct {
	words, chars []cvEntry
}

// gramVectorizer is what the reference scorers vectorize through: a
// Vocabulary or a refVocab.
type gramVectorizer interface {
	VectorizeGrams(d *PackedDoc) sparse.Vector
}

// VectorizeGrams merges d's gram lists against the tables and sorts
// the result by feature index.
func (r refVocab) VectorizeGrams(d *PackedDoc) sparse.Vector {
	vec := sparse.Vector{Idx: []uint32{}, Val: []float64{}}
	words, chars := gramsOf(d)
	mergeVectorize(&vec, words, r.words, float64(max(d.WordTotal, 1)))
	mergeVectorize(&vec, chars, r.chars, float64(max(d.CharTotal, 1)))
	vec.Sort()
	return vec
}

// mergeVectorize appends the entries of the grams doc shares with the
// table: both are sorted by gram id, so one two-pointer pass finds them.
func mergeVectorize(vec *sparse.Vector, doc []gramEntry, table []cvEntry, den float64) {
	i, j := 0, 0
	for i < len(doc) && j < len(table) {
		switch {
		case doc[i].ID < table[j].id:
			i++
		case doc[i].ID > table[j].id:
			j++
		default:
			vec.Idx = append(vec.Idx, table[j].index)
			vec.Val = append(vec.Val, float64(doc[i].Count)/den*table[j].idf)
			i++
			j++
		}
	}
}

// selectGrams is the cut in its id-sorted form: the top-n entries of agg in
// ascending gram id, each carrying base + its rank as feature index and its
// IDF. Negative n keeps everything.
func (s *aggBuffers) selectGrams(agg []GramCount, n int, base uint32) []cvEntry {
	if n < 0 || n > len(agg) {
		n = len(agg)
	}
	if n == 0 {
		return nil
	}
	out := make([]cvEntry, 0, n)
	rank := s.rankByFreq(agg)
	for i, e := range agg {
		if r := rank[i]; r < uint32(n) {
			out = append(out, cvEntry{id: e.ID, index: base + r, idf: s.idfByDF[e.DF]})
		}
	}
	return out
}

// refTablesOf is the vocabulary the builder's counters cut to, as id-sorted
// tables: what Build made before it emitted a feature table.
func refTablesOf(t testing.TB, b *VocabBuilder) refVocab {
	st := mustState(t, b)
	var s aggBuffers
	s.idfTable(b.numDocs)
	words := s.selectGrams(st.Words, b.cfg.MaxWordGrams, 0)
	return refVocab{words: words, chars: s.selectGrams(st.Chars, b.cfg.MaxCharGrams, uint32(len(words)))}
}

// tablesOf reads v's feature tables back into id-sorted form.
func tablesOf(v *Vocabulary) refVocab {
	table := func(x GramIndex, feat []uint32) []cvEntry {
		var out []cvEntry
		for n, f := range feat {
			if f != notSelected {
				out = append(out, cvEntry{id: x.grams[n].ID, index: f, idf: v.idfByDF[x.grams[n].DF]})
			}
		}
		return out
	}
	return refVocab{words: table(v.dict.words, v.words), chars: table(v.dict.chars, v.chars)}
}

// assertSameVector fails unless got and want hold the same indices and the
// same value bits.
func assertSameVector(t *testing.T, label string, got, want sparse.Vector) {
	t.Helper()
	if !slices.Equal(got.Idx, want.Idx) || len(got.Val) != len(want.Val) {
		t.Fatalf("%s: indices %v, reference %v", label, got.Idx, want.Idx)
	}
	for k := range want.Val {
		if math.Float64bits(got.Val[k]) != math.Float64bits(want.Val[k]) {
			t.Fatalf("%s: value %d is %x, reference %x", label, k, math.Float64bits(got.Val[k]), math.Float64bits(want.Val[k]))
		}
	}
}

// TestVectorizeByNumberMatchesMerge: the feature table a cut emits
// vectorizes every document — numbered by the vocabulary's dictionary, into
// reused storage, or numbered afresh by VectorizeGrams — to the bits
// mergeVectorize gives against the id-sorted cut of the same counters. The
// worlds are random documents over small gram pools, cut under budgets
// that keep nothing, bind inside tie classes and keep everything; the
// documents are the counted ones, probes holding grams the dictionary
// lacks, a probe with no gram in the cut, and an empty one.
func TestVectorizeByNumberMatchesMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(4141))
	var vec sparse.Vector
	var scratch Scratch
	for world := range 6 {
		docs := make([]*PackedDoc, 3+rng.Intn(20))
		for i := range docs {
			docs[i] = randomDoc(rng).packed()
		}
		probes := []*PackedDoc{randomDoc(rng).packed(), Extract("", ReductionConfig())}
		// Gram ids past randomDoc's pools: nothing the dictionary holds.
		foreign := packGrams([]gramEntry{{ID: 5000, Count: 2}}, []gramEntry{{ID: 5001, Count: 1}, {ID: 5002, Count: 3}})
		words, chars := gramsOf(docs[0])
		mixed := packGrams(append(words, gramEntry{ID: 5000, Count: 7}), chars)
		probes = append(probes, foreign, mixed)
		for _, budget := range []int{0, 1, 7, 30, -1} {
			cfg := FinalConfig()
			cfg.MaxWordGrams, cfg.MaxCharGrams = budget, budget
			b := NewVocabBuilder(cfg)
			for _, d := range docs {
				b.Add(d)
			}
			v, ref := mustBuild(t, b), refTablesOf(t, b)
			for i, d := range append(docs[:len(docs):len(docs)], probes...) {
				label := fmt.Sprintf("world %d budget %d doc %d", world, budget, i)
				want := ref.VectorizeGrams(d)
				assertSameVector(t, label, v.VectorizeGrams(d), want)
				v.VectorizeGramsInto(&vec, &scratch, v.Dictionary().Number(d))
				assertSameVector(t, label+" (reused storage)", vec, want)
				if d == foreign && want.Len() != 0 {
					t.Fatalf("%s: the foreign probe holds a selected gram", label)
				}
			}
		}
	}
}
