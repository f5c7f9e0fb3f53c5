package features

import (
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"darklight/internal/sparse"
)

// TestBuilderStateRoundTrip pins State → NewVocabBuilderFromState to the
// original builder: identical counters, and a bit-identical Vocabulary.
func TestBuilderStateRoundTrip(t *testing.T) {
	docs := shardTestDocs(29)
	b := NewVocabBuilder(ReductionConfig())
	for _, d := range docs {
		b.Add(d.packed())
	}
	got := NewVocabBuilderFromState(b.cfg, b.numDocs, mustState(t, b))
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
		a.Add(d.packed())
	}
	for i := len(docs) - 1; i >= 0; i-- {
		b.Add(docs[i].packed())
	}
	if !reflect.DeepEqual(mustState(t, a), mustState(t, b)) {
		t.Error("builder state depends on document order")
	}
}

// TestRemoveIsInverse: Add then Remove of any subset must equal a
// builder that never saw those documents — including which grams the
// arrays hold, so a gram whose counters hit zero cannot linger and perturb
// the cut.
func TestRemoveIsInverse(t *testing.T) {
	docs := shardTestDocs(23)
	full := NewVocabBuilder(ReductionConfig())
	for _, d := range docs {
		full.Add(d.packed())
	}
	for _, d := range docs[17:] {
		full.Remove(d.packed())
	}
	want := NewVocabBuilder(ReductionConfig())
	for _, d := range docs[:17] {
		want.Add(d.packed())
	}
	if !reflect.DeepEqual(mustState(t, full), mustState(t, want)) {
		t.Error("Remove left residue (or removed too much)")
	}
	if !reflect.DeepEqual(mustBuild(t, full), mustBuild(t, want)) {
		t.Error("Remove builder Builds a different vocabulary")
	}
}

// TestRemoveNumberedIsRemove: taking documents out by number — a
// decrement each entry on copies of the settled arrays — leaves the
// counters Remove leaves, and the original builder's arrays as they
// were. The renumbering from the old lists to the new carries every
// remaining document to the numbers a fresh numbering gives it; it is the
// identity when the same documents are taken out and put back. A document
// the counters never held, or one numbered past them, is refused.
func TestRemoveNumberedIsRemove(t *testing.T) {
	docs := shardTestDocs(23)
	full := NewVocabBuilder(ReductionConfig())
	for _, d := range docs {
		full.Add(d.packed())
	}
	before := mustState(t, full)
	kept := slices.Clone(before.Words)
	dict := NewDictionary(before.Words, before.Chars)
	var gone []*NumberedDoc
	for _, d := range docs[17:] {
		gone = append(gone, dict.Number(d.packed()))
	}
	byNumber, byID := full.Clone(), full.Clone()
	byNumber.RemoveNumbered(gone)
	for _, d := range docs[17:] {
		byID.Remove(d.packed())
	}
	after := mustState(t, byNumber)
	if !reflect.DeepEqual(after, mustState(t, byID)) {
		t.Fatal("RemoveNumbered and Remove leave different counters")
	}
	if !slices.Equal(mustState(t, full).Words, kept) {
		t.Fatal("RemoveNumbered wrote the arrays it was cloned from")
	}
	r := NewRenumbering(before.Words, before.Chars, after.Words, after.Chars)
	if r.Identity() {
		t.Fatal("the removal took no gram out of the dictionary")
	}
	next := NewDictionary(after.Words, after.Chars)
	var s Scratch
	for i, d := range docs[:17] {
		var out NumberedDoc
		old := dict.Number(d.packed())
		kept := slices.Clone(old.Packed)
		if err := r.Apply(&out, old, &s); err != nil {
			t.Fatalf("doc %d: %v", i, err)
		}
		if !reflect.DeepEqual(&out, next.Number(d.packed())) {
			t.Fatalf("doc %d: renumbered other than a fresh numbering", i)
		}
		if !slices.Equal(old.Packed, kept) {
			t.Fatalf("doc %d: the renumbering wrote the document it read", i)
		}
	}
	if err := r.Apply(new(NumberedDoc), gone[0], &s); err == nil {
		t.Fatal("a removed document renumbered into counters that lost its grams")
	}
	back := byNumber.Clone()
	for _, d := range docs[17:] {
		back.Add(d.packed())
	}
	if st := mustState(t, back); !NewRenumbering(before.Words, before.Chars, st.Words, st.Chars).Identity() {
		t.Fatal("taking documents out and putting them back moved numbers")
	}

	words, chars := entriesOf(gone[0])
	words[0].Count += before.Words[words[0].Num].Freq
	foreign := withEntries(gone[0], words, chars)
	words, chars = entriesOf(gone[0])
	past := withEntries(gone[0], words, append(chars, NumEntry{Num: uint32(len(before.Chars)), Count: 1}))
	for name, d := range map[string]*NumberedDoc{"the counters never held": foreign, "numbered past the counters": past} {
		c := full.Clone()
		c.RemoveNumbered([]*NumberedDoc{d})
		if _, err := c.State(); err == nil {
			t.Fatalf("a document %s was taken out", name)
		}
	}
}

// TestFoldWritesTheCountersOnce: what a Fold does to the corpus counters —
// clone the serving builder, take the replaced subject's document out by
// number, add its new extraction, and settle for State — writes the
// counters once, into one new array per gram family, and allocates little
// besides. The world's texts are random letter strings, so nearly every gram
// is counted once and the counters, 16 B a gram, dwarf the batch. Taking
// the removal out on copies of the arrays before the addition merges wrote
// them twice: 32.4 B a counted gram on this world, where one write reads
// 17.0 (32.7 and 17.6 under -race).
func TestFoldWritesTheCountersOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(4912))
	text := func(words int) string {
		var b strings.Builder
		for range words {
			for range 4 + rng.Intn(6) {
				b.WriteByte(byte('a' + rng.Intn(26)))
			}
			b.WriteByte(' ')
		}
		return b.String()
	}
	serving := NewVocabBuilder(ReductionConfig())
	docs := make([]*PackedDoc, 24)
	for i := range docs {
		words := 3000
		if i == 5 {
			words = 300 // the subject the fold replaces
		}
		docs[i] = Extract(text(words), ReductionConfig())
		serving.Add(docs[i])
	}
	st := mustState(t, serving)
	gone := NewDictionary(st.Words, st.Chars).Number(docs[5])
	fresh := Extract(text(300), ReductionConfig())
	grams := float64(len(st.Words) + len(st.Chars))

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	b := serving.Clone()
	b.RemoveNumbered([]*NumberedDoc{gone})
	b.Add(fresh)
	if err := b.Settle(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	perGram := float64(after.TotalAlloc-before.TotalAlloc) / grams
	t.Logf("%.0f grams; the counters' fold allocated %.1f B a gram", grams, perGram)
	if perGram > 24 {
		t.Errorf("the counters' fold allocated %.1f B a counted gram, ceiling 24: the counters were written more than once", perGram)
	}
	want := serving.Clone()
	want.Remove(docs[5])
	want.Add(fresh)
	if !reflect.DeepEqual(mustState(t, b), mustState(t, want)) {
		t.Fatal("the fold's counters differ from taking the document out by id")
	}
}

// TestBuilderCloneIsIndependent: mutating a clone never leaks into the
// original.
func TestBuilderCloneIsIndependent(t *testing.T) {
	docs := shardTestDocs(11)
	b := NewVocabBuilder(ReductionConfig())
	for _, d := range docs[:7] {
		b.Add(d.packed())
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
			c.Add(d.packed())
		}
		c.Remove(docs[0].packed())
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
	tables := tablesOf(v)
	section(d.WordGrams, d.WordTotal, tables.words)
	section(d.CharGrams, d.CharTotal, tables.chars)
	vec.Sort()
	return vec
}

// TestVectorizeGramsMatches pins VectorizeGrams and the
// scratch-reusing VectorizeGramsInto of the numbered document to the
// map-probing reference
// bit for bit, on documents the vocabulary was built from and on probes
// that are mostly outside it.
func TestVectorizeGramsMatches(t *testing.T) {
	docs := shardTestDocs(23)
	b := NewVocabBuilder(ReductionConfig())
	for _, d := range docs[:17] {
		b.Add(d.packed())
	}
	v := mustBuild(t, b)
	var vec sparse.Vector
	var scratch Scratch
	for i, d := range append(docs, mapExtract("", ReductionConfig())) {
		want := mapVectorize(v, d)
		if got := v.VectorizeGrams(d.packed()); !reflect.DeepEqual(got, want) {
			t.Fatalf("doc %d: VectorizeGrams diverges from the map reference", i)
		}
		v.VectorizeGramsInto(&vec, &scratch, v.Dictionary().Number(d.packed()))
		if !slices.Equal(vec.Idx, want.Idx) || !slices.Equal(vec.Val, want.Val) {
			t.Fatalf("doc %d: VectorizeGramsInto on reused storage diverges from the map reference", i)
		}
	}
}

// TestGramIndexNumbers: every gram of a builder state numbers to its own
// position, and an id the list does not hold — below, between and above its
// entries, or anything at all against an empty list — numbers to nothing.
// A Dictionary's forward walk numbers a document's entries as one lookup
// each does and drops those no lookup finds, for documents the builder
// never saw too, fresh or into storage that held another document.
func TestGramIndexNumbers(t *testing.T) {
	b := NewVocabBuilder(ReductionConfig())
	docs := shardTestDocs(29)
	for _, d := range docs[:20] {
		b.Add(d.packed())
	}
	st := mustState(t, b)
	dict, wordIndex, charIndex := NewDictionary(st.Words, st.Chars), IndexGrams(st.Words), IndexGrams(st.Chars)
	into := &NumberedDoc{Packed: make([]byte, 3)}
	var s Scratch
	for i, md := range docs {
		d := md.packed()
		dw, dc := gramsOf(d)
		nd := dict.Number(d)
		dict.NumberInto(into, d, &s)
		for _, got := range []*NumberedDoc{nd, into} {
			words, chars := entriesOf(got)
			if got.WordTotal != d.WordTotal || got.CharTotal != d.CharTotal || got.TotalChars != d.TotalChars || got.Freq != d.Freq {
				t.Fatalf("doc %d: totals and frequencies not the document's", i)
			}
			wp, cp := got.Lists()
			for f, fam := range []struct {
				x    GramIndex
				es   []gramEntry
				nums []NumEntry
				p    []byte
			}{{wordIndex, dw, words, wp}, {charIndex, dc, chars, cp}} {
				var want []NumEntry
				for _, g := range fam.es {
					if num, ok := fam.x.Number(g.ID); ok {
						want = append(want, NumEntry{Num: num, Count: g.Count})
					}
				}
				if !slices.Equal(fam.nums, want) {
					t.Fatalf("doc %d family %d: numbered %v, lookups %v", i, f, fam.nums, want)
				}
				if n, err := CheckPacked(fam.p, fam.x.grams, false); err != nil || n != len(fam.p) {
					t.Fatalf("doc %d family %d: CheckPacked took %d of %d bytes (%v)", i, f, n, len(fam.p), err)
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
