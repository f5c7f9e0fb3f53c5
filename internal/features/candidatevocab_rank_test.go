package features

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// shapeDoc builds a document from explicit word and char gram counts.
func shapeDoc(words, chars map[GramID]int) *mapDoc {
	d := &mapDoc{WordGrams: words, CharGrams: chars}
	for _, c := range words {
		d.WordTotal += c
	}
	for _, c := range chars {
		d.CharTotal += c
	}
	return d
}

// flatGrams returns n grams starting at base, every one with count c. Ids
// are spread by a multiplicative hash unless sequential is set, so both the
// radix sort's even-split and shared-prefix paths see them.
func flatGrams(base, n, c int, sequential bool) map[GramID]int {
	m := make(map[GramID]int, n)
	for i := 0; i < n; i++ {
		g := GramID(base + i)
		if !sequential {
			g = GramID(uint64(base+i+1) * 0x9e3779b97f4a7c15)
		}
		m[g] = c
	}
	return m
}

// rankShapes are the inputs a comparison sort hides the difficulty of and a
// counting sort has to get right explicitly.
func rankShapes(rng *rand.Rand) map[string][]*mapDoc {
	shapes := make(map[string][]*mapDoc)

	// Every gram at one frequency: the whole aggregate is a single tie
	// class, so any budget cuts inside it and only gram-id order decides.
	var flat []*mapDoc
	for d := 0; d < 4; d++ {
		flat = append(flat, shapeDoc(flatGrams(100*d, 100, 3, false), flatGrams(1000+150*d, 150, 2, true)))
	}
	shapes["one_tie_class"] = flat

	shapes["single_doc"] = []*mapDoc{randomDoc(rng)}
	shapes["empty_docs"] = []*mapDoc{shapeDoc(map[GramID]int{}, map[GramID]int{}), shapeDoc(map[GramID]int{}, map[GramID]int{})}
	shapes["empty_beside_full"] = []*mapDoc{shapeDoc(map[GramID]int{}, map[GramID]int{}), randomDoc(rng), shapeDoc(map[GramID]int{}, map[GramID]int{})}

	// One document k times over: every document frequency is k, every IDF
	// ln((1+k)/(1+k)) = 0, and every frequency a multiple of k.
	rep := randomDoc(rng)
	shapes["repeated_doc"] = []*mapDoc{rep, rep, rep, rep, rep, rep, rep}

	// One frequency past the 16-bit digit (and, summed over two docs, past
	// a second one) beside thousands of singletons: the two-pass path, a
	// histogram that must not grow with the frequency, and tie classes of
	// thousands on either side of the cut.
	huge := flatGrams(0, 3000, 1, false)
	huge[GramID(7)] = 1 << 29
	huge[GramID(8)] = 1<<16 + 5
	huge[GramID(9)] = 1 << 16
	huge[GramID(10)] = 1<<16 - 1
	other := flatGrams(2000, 3000, 1, false)
	other[GramID(7)] = 1 << 29
	shapes["huge_frequency"] = []*mapDoc{shapeDoc(huge, flatGrams(5000, 2000, 1, true)), shapeDoc(other, flatGrams(6000, 2000, 1, true))}

	// Random overlap, a few docs to many.
	for _, k := range []int{2, 10, 33} {
		docs := make([]*mapDoc, k)
		for i := range docs {
			docs[i] = randomDoc(rng)
		}
		shapes[fmt.Sprintf("random_%d", k)] = docs
	}
	return shapes
}

// distinctGrams counts the distinct word and char grams over docs.
func distinctGrams(docs []*mapDoc) (words, chars int) {
	w, c := make(map[GramID]bool), make(map[GramID]bool)
	for _, d := range docs {
		for g := range d.WordGrams {
			w[g] = true
		}
		for g := range d.CharGrams {
			c[g] = true
		}
	}
	return len(w), len(c)
}

// assertMatchesReference compares the cut the kernels make over docs — the
// vocabulary a VocabBuilder fed them freezes — entry by entry with the
// map-based reference built over the same docs: feature index, IDF bits,
// and the vector bits of every doc plus an unseen probe. Then it holds cv's
// scores, numbered by the dictionary of docs, to the reference's vectors.
func assertMatchesReference(t *testing.T, label string, cfg Config, cv *CandidateVocab, docs []*mapDoc, probe *mapDoc) {
	t.Helper()
	ref := refBuilderOf(cfg, docs...).Build()
	vb := NewVocabBuilder(cfg)
	packed := make([]*PackedDoc, len(docs))
	for i, d := range docs {
		packed[i] = d.packed()
		vb.Add(packed[i])
	}
	got := mustBuild(t, vb)
	check := func(kind string, got, want []cvEntry) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d %s grams, reference %d", label, len(got), kind, len(want))
		}
		// The reference section is the same id-sorted table, cut by a
		// comparison sort over the reference builder's maps.
		for i, e := range got {
			w := want[i]
			if e.id != w.id {
				t.Fatalf("%s: %s entry %d is gram %d, reference %d", label, kind, i, e.id, w.id)
			}
			if e.index != w.index {
				t.Fatalf("%s: %s gram %d at index %d, reference %d", label, kind, e.id, e.index, w.index)
			}
			if math.Float64bits(e.idf) != math.Float64bits(w.idf) {
				t.Fatalf("%s: %s gram %d idf %x, reference %x", label, kind, e.id,
					math.Float64bits(e.idf), math.Float64bits(w.idf))
			}
		}
	}
	check("word", tablesOf(got).words, ref.words)
	check("char", tablesOf(got).chars, ref.chars)
	for j, d := range append(docs[:len(docs):len(docs)], probe) {
		want := ref.VectorizeGrams(d.packed())
		if v := got.VectorizeGrams(d.packed()); !reflect.DeepEqual(want, v) {
			t.Fatalf("%s: doc %d vector not bit-identical\nfast: %v\nref:  %v", label, j, v, want)
		}
	}
	assertDotsMatchReference(t, label, cfg, cv, ref, dictionaryOf(t, packed...), packed, probe.packed())
}

// TestCountingRankMatchesReference pins the counting-sort selection, and the
// scores stage 2 sweeps out of it, to the map-based refBuilder +
// Vocabulary.VectorizeGrams reference on the shapes where a stable
// counting sort and a comparison sort could part ways, under budgets that
// keep nothing, cut inside a tie class, keep exactly everything, and keep
// more than there is. One CandidateVocab scores every case in turn after a
// fresh one has, largest inputs included, so scratch left over from an
// earlier query must never show in a later one.
func TestCountingRankMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	shapes := rankShapes(rng)
	names := make([]string, 0, len(shapes))
	for name := range shapes {
		names = append(names, name)
	}
	slices.Sort(names)
	var reused CandidateVocab
	for _, name := range names {
		docs := shapes[name]
		w, c := distinctGrams(docs)
		budgets := [][2]int{
			{0, 0}, {-1, -1}, {-7, 0}, {1, 1},
			{w / 2, c / 3}, {w - 1, c - 1}, {w, c}, {w + 1, c + 100}, {1 << 30, 1 << 30},
		}
		for _, b := range budgets {
			cfg := FinalConfig()
			cfg.MaxWordGrams, cfg.MaxCharGrams = b[0], b[1]
			probe := randomDoc(rng)
			label := fmt.Sprintf("%s budgets %d/%d", name, b[0], b[1])
			assertMatchesReference(t, label+" (fresh)", cfg, new(CandidateVocab), docs, probe)
			assertMatchesReference(t, label+" (reused)", cfg, &reused, docs, probe)
		}
	}
}

// TestRankByFreqIsStableDescending checks the ranking primitive directly
// against its definition on frequencies that straddle the digit boundary.
func TestRankByFreqIsStableDescending(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	pools := [][]int32{
		{1},
		{1, 2, 3},
		{digitMask - 1, digitMask, digitMask + 1},
		{1, digitMask, digitMask + 1, 2*digitMask + 1, 1 << 30, math.MaxInt32},
	}
	var s aggBuffers
	for trial := 0; trial < 200; trial++ {
		pool := pools[trial%len(pools)]
		agg := make([]GramCount, rng.Intn(400))
		for i := range agg {
			agg[i] = GramCount{ID: GramID(i), Freq: pool[rng.Intn(len(pool))], DF: 1}
		}
		want := make([]int, len(agg))
		for i := range want {
			want[i] = i
		}
		slices.SortStableFunc(want, func(a, b int) int {
			switch {
			case agg[a].Freq > agg[b].Freq:
				return -1
			case agg[a].Freq < agg[b].Freq:
				return 1
			}
			return 0
		})
		rank := s.rankByFreq(agg)
		for r, i := range want {
			if rank[i] != uint32(r) {
				t.Fatalf("trial %d: entry %d (freq %d) ranked %d, want %d", trial, i, agg[i].Freq, rank[i], r)
			}
		}
	}
}

// TestSortedIsIDOrdered checks sortIDs and runLength — the id sort and the
// run-length count behind every document — against a map count on hashed ids (the two
// radix passes order them), dense small ids and ids that differ only in the
// last byte (one prefix group: the finishing walk sorts everything), ids
// spread over a few large groups and over many groups of five sharing a
// prefix, and one id repeated throughout; every id occurs one to nine times,
// shuffled.
func TestSortedIsIDOrdered(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	gens := map[string]func(i int) GramID{
		"hashed":      func(i int) GramID { return GramID(rng.Uint64()) },
		"dense_small": func(i int) GramID { return GramID(i * 3) },
		"last_byte":   func(i int) GramID { return GramID(0xabcdef0123456700 | uint64(i&0xff)) },
		"two_levels":  func(i int) GramID { return GramID(uint64(i&3)<<56 | uint64(rng.Intn(1<<20))) },
		"prefix_fives": func(i int) GramID {
			return GramID(uint64(i/5)*0x9e3779b97f4a7c15&^(1<<sortShift-1) | uint64(rng.Intn(1<<30)))
		},
		"one_id": func(i int) GramID { return GramID(0x9e3779b97f4a7c15) },
	}
	for name, gen := range gens {
		for _, n := range []int{0, 1, 2, 31, 32, 33, 200, 5000} {
			m := make(map[GramID]int, n)
			var ids []uint64
			for i := 0; i < n; i++ {
				id := gen(i)
				for c := 1 + rng.Intn(9); c > 0; c-- {
					m[id]++
					ids = append(ids, uint64(id))
				}
			}
			rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
			counts := make([]uint64, len(ids))
			sortIDs(ids, counts)
			got := ids[:runLength(ids, counts)]
			if len(got) != len(m) {
				t.Fatalf("%s n=%d: %d entries, want %d", name, n, len(got), len(m))
			}
			for i, id := range got {
				if i > 0 && got[i-1] >= id {
					t.Fatalf("%s n=%d: ids out of order at %d: %d then %d", name, n, i, got[i-1], id)
				}
				if m[GramID(id)] != int(counts[i]) {
					t.Fatalf("%s n=%d: gram %d count %d, want %d", name, n, id, counts[i], m[GramID(id)])
				}
			}
		}
	}
}
