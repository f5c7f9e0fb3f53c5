package features

import (
	"reflect"
	"slices"
	"testing"

	"darklight/internal/sparse"
)

// TestBuilderStateRoundTrip pins State → NewVocabBuilderFromState to the
// original builder: identical counters, and a bit-identical Vocabulary.
func TestBuilderStateRoundTrip(t *testing.T) {
	docs := shardTestDocs(29)
	b := NewVocabBuilder(ReductionConfig())
	for _, d := range docs {
		b.Add(d)
	}
	got := NewVocabBuilderFromState(b.State())
	if !reflect.DeepEqual(got.words, b.words) || !reflect.DeepEqual(got.chars, b.chars) {
		t.Error("round-tripped builder counters diverge")
	}
	if got.numDocs != b.numDocs || got.freqSeen != b.freqSeen {
		t.Errorf("round-tripped builder: numDocs %d/%d freqSeen %v/%v", got.numDocs, b.numDocs, got.freqSeen, b.freqSeen)
	}
	if !reflect.DeepEqual(got.Build(), b.Build()) {
		t.Error("round-tripped builder Builds a different vocabulary")
	}
}

// TestBuilderStateDeterministic pins the serialised form: two builders fed
// the same documents in different orders emit byte-for-byte equal states.
func TestBuilderStateDeterministic(t *testing.T) {
	docs := shardTestDocs(17)
	a := NewVocabBuilder(ReductionConfig())
	b := NewVocabBuilder(ReductionConfig())
	for _, d := range docs {
		a.Add(d)
	}
	for i := len(docs) - 1; i >= 0; i-- {
		b.Add(docs[i])
	}
	if !reflect.DeepEqual(a.State(), b.State()) {
		t.Error("builder state depends on document order")
	}
}

// TestVocabStateRoundTrip pins Vocabulary State → NewVocabularyFromState:
// the reconstructed vocabulary vectorizes bit-identically.
func TestVocabStateRoundTrip(t *testing.T) {
	docs := shardTestDocs(29)
	b := NewVocabBuilder(ReductionConfig())
	for _, d := range docs {
		b.Add(d)
	}
	v := b.Build()
	got, err := NewVocabularyFromState(v.State())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, v) {
		t.Error("round-tripped vocabulary diverges")
	}
	for i, d := range docs {
		if !reflect.DeepEqual(got.Vectorize(d), v.Vectorize(d)) {
			t.Fatalf("doc %d: round-tripped vocabulary vectorizes differently", i)
		}
	}
}

// TestVocabStateRejectsMalformed: length mismatches and duplicate grams
// must error, not build a silently wrong index.
func TestVocabStateRejectsMalformed(t *testing.T) {
	docs := shardTestDocs(5)
	b := NewVocabBuilder(ReductionConfig())
	for _, d := range docs {
		b.Add(d)
	}
	st := b.Build().State()

	short := st
	short.WordIDF = short.WordIDF[:len(short.WordIDF)-1]
	if _, err := NewVocabularyFromState(short); err == nil {
		t.Error("length mismatch accepted")
	}
	dup := st
	dup.Words = append([]GramID{st.Words[1]}, st.Words[1:]...)
	dup.WordIDF = append([]float64{st.WordIDF[1]}, st.WordIDF[1:]...)
	if _, err := NewVocabularyFromState(dup); err == nil {
		t.Error("duplicate gram accepted")
	}
}

// TestAddSortedMatchesAdd: feeding SortedDocs must leave counter-for-
// counter the same builder as feeding the original Docs.
func TestAddSortedMatchesAdd(t *testing.T) {
	docs := shardTestDocs(23)
	plain := NewVocabBuilder(ReductionConfig())
	sorted := NewVocabBuilder(ReductionConfig())
	for _, d := range docs {
		plain.Add(d)
		sorted.AddSorted(d.Sorted())
	}
	if !reflect.DeepEqual(sorted.words, plain.words) || !reflect.DeepEqual(sorted.chars, plain.chars) {
		t.Error("AddSorted counters diverge from Add")
	}
	if sorted.numDocs != plain.numDocs || sorted.freqSeen != plain.freqSeen {
		t.Error("AddSorted bookkeeping diverges from Add")
	}
}

// TestRemoveSortedIsInverse: Add then Remove of any subset must equal a
// builder that never saw those documents — including the map's key set,
// so a gram whose counters hit zero cannot linger and perturb the top-N
// candidate ordering.
func TestRemoveSortedIsInverse(t *testing.T) {
	docs := shardTestDocs(23)
	full := NewVocabBuilder(ReductionConfig())
	for _, d := range docs {
		full.AddSorted(d.Sorted())
	}
	for _, d := range docs[17:] {
		full.RemoveSorted(d.Sorted())
	}
	want := NewVocabBuilder(ReductionConfig())
	for _, d := range docs[:17] {
		want.AddSorted(d.Sorted())
	}
	if !reflect.DeepEqual(full.words, want.words) || !reflect.DeepEqual(full.chars, want.chars) {
		t.Error("RemoveSorted left residue (or removed too much)")
	}
	if full.numDocs != want.numDocs || full.freqSeen != want.freqSeen {
		t.Error("RemoveSorted bookkeeping diverges")
	}
	if !reflect.DeepEqual(full.Build(), want.Build()) {
		t.Error("RemoveSorted builder Builds a different vocabulary")
	}
}

// TestBuilderCloneIsIndependent: mutating a clone never leaks into the
// original.
func TestBuilderCloneIsIndependent(t *testing.T) {
	docs := shardTestDocs(11)
	b := NewVocabBuilder(ReductionConfig())
	for _, d := range docs[:7] {
		b.AddSorted(d.Sorted())
	}
	before := b.State()
	c := b.Clone()
	if !reflect.DeepEqual(c.State(), before) {
		t.Fatal("clone does not equal original")
	}
	for _, d := range docs[7:] {
		c.AddSorted(d.Sorted())
	}
	c.RemoveSorted(docs[0].Sorted())
	if !reflect.DeepEqual(b.State(), before) {
		t.Error("mutating the clone changed the original")
	}
}

// mapVectorize is the map-probing vectorizer the merge replaced, kept as
// the tests' reference: it probes an index built from the vocabulary's
// State() for every gram of the unflattened document.
func mapVectorize(st VocabState, d *Doc) sparse.Vector {
	vec := sparse.Vector{Idx: []uint32{}, Val: []float64{}}
	section := func(grams map[GramID]int, total int, ids []GramID, idfs []float64, base uint32) {
		index := make(map[GramID]int, len(ids))
		for i, g := range ids {
			index[g] = i
		}
		den := float64(max(total, 1))
		for g, c := range grams {
			if i, ok := index[g]; ok {
				vec.Idx = append(vec.Idx, base+uint32(i))
				vec.Val = append(vec.Val, float64(c)/den*idfs[i])
			}
		}
	}
	section(d.WordGrams, d.WordTotal, st.Words, st.WordIDF, 0)
	section(d.CharGrams, d.CharTotal, st.Chars, st.CharIDF, uint32(len(st.Words)))
	vec.Sort()
	return vec
}

// TestVectorizeGramsSortedMatches pins VectorizeGrams, VectorizeGramsSorted
// and the scratch-reusing VectorizeGramsInto to the map-probing reference
// bit for bit, on documents the vocabulary was built from and on probes
// that are mostly outside it.
func TestVectorizeGramsSortedMatches(t *testing.T) {
	docs := shardTestDocs(23)
	b := NewVocabBuilder(ReductionConfig())
	for _, d := range docs[:17] {
		b.Add(d)
	}
	v := b.Build()
	st := v.State()
	var vec, scratch sparse.Vector
	for i, d := range append(docs, Extract("", ReductionConfig())) {
		want := mapVectorize(st, d)
		if got := v.VectorizeGrams(d); !reflect.DeepEqual(got, want) {
			t.Fatalf("doc %d: VectorizeGrams diverges from the map reference", i)
		}
		if got := v.VectorizeGramsSorted(d.Sorted()); !reflect.DeepEqual(got, want) {
			t.Fatalf("doc %d: VectorizeGramsSorted diverges from the map reference", i)
		}
		v.VectorizeGramsInto(&vec, &scratch, d.Sorted())
		if !slices.Equal(vec.Idx, want.Idx) || !slices.Equal(vec.Val, want.Val) {
			t.Fatalf("doc %d: VectorizeGramsInto on reused storage diverges from the map reference", i)
		}
	}
}

// TestGramIndexNumbers: every gram of a builder state numbers to its own
// position, and an id the list does not hold — below, between and above its
// entries, or anything at all against an empty list — numbers to nothing.
func TestGramIndexNumbers(t *testing.T) {
	b := NewVocabBuilder(ReductionConfig())
	for _, d := range shardTestDocs(29) {
		b.Add(d)
	}
	for _, grams := range [][]GramCount{b.State().Words, b.State().Chars, nil} {
		x := IndexGrams(grams)
		for i, g := range grams {
			if num, ok := x.Number(g.ID); !ok || int(num) != i {
				t.Fatalf("gram %d at position %d numbers to %d, %v", g.ID, i, num, ok)
			}
			if _, ok := x.Number(g.ID + 1); ok != (i+1 < len(grams) && grams[i+1].ID == g.ID+1) {
				t.Fatalf("id %d, one past the gram at %d: found = %v", g.ID+1, i, ok)
			}
		}
		for _, id := range []GramID{0, 1, ^GramID(0)} {
			if _, ok := x.Number(id); ok != slices.ContainsFunc(grams, func(g GramCount) bool { return g.ID == id }) {
				t.Fatalf("id %d in a list of %d: found = %v", id, len(grams), ok)
			}
		}
	}
}
