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
		b.AddSorted(d.Sorted())
	}
	got, err := NewVocabBuilderFromState(mustState(t, b))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(mustState(t, got), mustState(t, b)) {
		t.Error("round-tripped builder counters diverge")
	}
	if !reflect.DeepEqual(mustBuild(t, got), mustBuild(t, b)) {
		t.Error("round-tripped builder Builds a different vocabulary")
	}
	assertBuilderMatchesReference(t, "round-tripped builder", got, refBuilderOf(ReductionConfig(), docs...))
}

// TestBuilderStateDeterministic pins the serialised form: two builders fed
// the same documents in different orders emit byte-for-byte equal states.
func TestBuilderStateDeterministic(t *testing.T) {
	docs := shardTestDocs(17)
	a := NewVocabBuilder(ReductionConfig())
	b := NewVocabBuilder(ReductionConfig())
	for _, d := range docs {
		a.AddSorted(d.Sorted())
	}
	for i := len(docs) - 1; i >= 0; i-- {
		b.AddSorted(docs[i].Sorted())
	}
	if !reflect.DeepEqual(mustState(t, a), mustState(t, b)) {
		t.Error("builder state depends on document order")
	}
}

// TestRemoveSortedIsInverse: Add then Remove of any subset must equal a
// builder that never saw those documents — including which grams the
// arrays hold, so a gram whose counters hit zero cannot linger and perturb
// the cut.
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
	if !reflect.DeepEqual(mustState(t, full), mustState(t, want)) {
		t.Error("RemoveSorted left residue (or removed too much)")
	}
	if !reflect.DeepEqual(mustBuild(t, full), mustBuild(t, want)) {
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
	// Cloned with documents still pending, and again once settled: the arrays
	// are shared, so what a merge writes must never be one of them.
	for _, settled := range []bool{false, true} {
		if settled {
			mustState(t, b)
		}
		c := b.Clone()
		before := mustState(t, b)
		words, chars := slices.Clone(before.Words), slices.Clone(before.Chars)
		if !reflect.DeepEqual(mustState(t, c), before) {
			t.Fatal("clone does not equal original")
		}
		for _, d := range docs[7:] {
			c.AddSorted(d.Sorted())
		}
		c.RemoveSorted(docs[0].Sorted())
		if reflect.DeepEqual(mustState(t, c), before) {
			t.Fatal("the clone did not take the documents")
		}
		if after := mustState(t, b); !reflect.DeepEqual(after, before) || !slices.Equal(before.Words, words) || !slices.Equal(before.Chars, chars) {
			t.Errorf("mutating the clone (settled before: %v) changed the original", settled)
		}
	}
}

// mapVectorize is the map-probing vectorizer the merge replaced, kept as
// the tests' reference: it probes a hash index of the vocabulary's tables
// for every gram of the map document.
func mapVectorize(v *Vocabulary, d *mapDoc) sparse.Vector {
	vec := sparse.Vector{Idx: []uint32{}, Val: []float64{}}
	section := func(grams map[GramID]int, total int, table []cvEntry) {
		index := make(map[GramID]cvEntry, len(table))
		for _, e := range table {
			index[e.id] = e
		}
		den := float64(max(total, 1))
		for g, c := range grams {
			if e, ok := index[g]; ok {
				vec.Idx = append(vec.Idx, e.index)
				vec.Val = append(vec.Val, float64(c)/den*e.idf)
			}
		}
	}
	section(d.WordGrams, d.WordTotal, v.words.byID)
	section(d.CharGrams, d.CharTotal, v.chars.byID)
	vec.Sort()
	return vec
}

// TestVectorizeGramsSortedMatches pins VectorizeGramsSorted and the
// scratch-reusing VectorizeGramsInto to the map-probing reference
// bit for bit, on documents the vocabulary was built from and on probes
// that are mostly outside it.
func TestVectorizeGramsSortedMatches(t *testing.T) {
	docs := shardTestDocs(23)
	b := NewVocabBuilder(ReductionConfig())
	for _, d := range docs[:17] {
		b.AddSorted(d.Sorted())
	}
	v := mustBuild(t, b)
	var vec, scratch sparse.Vector
	for i, d := range append(docs, mapExtract("", ReductionConfig())) {
		want := mapVectorize(v, d)
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
// A Dictionary's forward walk numbers a document's entries as one lookup
// each does, those of documents the builder never saw included.
func TestGramIndexNumbers(t *testing.T) {
	b := NewVocabBuilder(ReductionConfig())
	docs := shardTestDocs(29)
	for _, d := range docs[:20] {
		b.AddSorted(d.Sorted())
	}
	st := mustState(t, b)
	dict, words, chars := NewDictionary(st.Words, st.Chars), IndexGrams(st.Words), IndexGrams(st.Chars)
	for i, md := range docs {
		d := md.Sorted()
		nd := dict.Number(d)
		into := &NumberedDoc{Words: make([]uint32, 3)}
		dict.NumberInto(into, d)
		for _, got := range []*NumberedDoc{nd, into} {
			for f, fam := range []struct {
				x    GramIndex
				es   []GramEntry
				nums []uint32
			}{{words, d.WordGrams, got.Words}, {chars, d.CharGrams, got.Chars}} {
				if got.Doc != d || len(fam.nums) != len(fam.es) {
					t.Fatalf("doc %d family %d: %d numbers for %d entries", i, f, len(fam.nums), len(fam.es))
				}
				for e, g := range fam.es {
					want := uint32(notNumbered)
					if num, ok := fam.x.Number(g.ID); ok {
						want = num
					}
					if fam.nums[e] != want {
						t.Fatalf("doc %d family %d entry %d: number %d, lookup %d", i, f, e, fam.nums[e], want)
					}
				}
			}
		}
	}
	for _, grams := range [][]GramCount{mustState(t, b).Words, mustState(t, b).Chars, nil} {
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
