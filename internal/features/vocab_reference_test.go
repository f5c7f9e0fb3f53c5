package features

import (
	"cmp"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// refBuilder is the hash-map VocabBuilder the sorted-run one replaced, kept
// as the tests' reference: two maps of counters, a comparison sort by rank
// for the cut and another by gram id for the state and the tables. It shares
// no counting, merging or ranking code with the builder under test — only
// idf and, for the section's offset table, newSection.
type refBuilder struct {
	cfg      Config
	words    map[GramID]refStat
	chars    map[GramID]refStat
	numDocs  int
	freqSeen [NumFreqFeatures]int
}

type refStat struct{ freq, df int }

func newRefBuilder(cfg Config) *refBuilder {
	return &refBuilder{cfg: cfg, words: make(map[GramID]refStat), chars: make(map[GramID]refStat)}
}

// refBuilderOf is a reference builder fed docs.
func refBuilderOf(cfg Config, docs ...*mapDoc) *refBuilder {
	b := newRefBuilder(cfg)
	for _, d := range docs {
		b.Add(d)
	}
	return b
}

func (b *refBuilder) Add(d *mapDoc) {
	b.numDocs++
	for g, c := range d.WordGrams {
		s := b.words[g]
		b.words[g] = refStat{s.freq + c, s.df + 1}
	}
	for g, c := range d.CharGrams {
		s := b.chars[g]
		b.chars[g] = refStat{s.freq + c, s.df + 1}
	}
	for i, f := range d.Freq {
		if f > 0 {
			b.freqSeen[i]++
		}
	}
}

func (b *refBuilder) AddSorted(d *SortedDoc)    { b.fold(d, 1) }
func (b *refBuilder) RemoveSorted(d *SortedDoc) { b.fold(d, -1) }

func (b *refBuilder) fold(d *SortedDoc, sign int) {
	b.numDocs += sign
	for f, es := range [][]GramEntry{d.WordGrams, d.CharGrams} {
		stats := [...]map[GramID]refStat{b.words, b.chars}[f]
		for _, e := range es {
			s := stats[e.ID]
			s = refStat{s.freq + sign*int(e.Count), s.df + sign}
			if s == (refStat{}) {
				delete(stats, e.ID)
			} else {
				stats[e.ID] = s
			}
		}
	}
	for i, f := range d.Freq {
		if f > 0 {
			b.freqSeen[i] += sign
		}
	}
}

func (b *refBuilder) Merge(o *refBuilder) {
	b.numDocs += o.numDocs
	for f, from := range []map[GramID]refStat{o.words, o.chars} {
		into := [...]map[GramID]refStat{b.words, b.chars}[f]
		for g, os := range from {
			s := into[g]
			into[g] = refStat{s.freq + os.freq, s.df + os.df}
		}
	}
	for i := range o.freqSeen {
		b.freqSeen[i] += o.freqSeen[i]
	}
}

func (b *refBuilder) Clone() *refBuilder {
	c := *b
	c.words, c.chars = maps.Clone(b.words), maps.Clone(b.chars)
	return &c
}

// refCounts flattens one counter map, ascending by gram id.
func refCounts(stats map[GramID]refStat) []GramCount {
	var out []GramCount
	for g, s := range stats {
		out = append(out, GramCount{ID: g, Freq: int32(s.freq), DF: int32(s.df)})
	}
	slices.SortFunc(out, func(a, b GramCount) int { return cmp.Compare(a.ID, b.ID) })
	return out
}

func (b *refBuilder) State() BuilderState {
	return BuilderState{Config: b.cfg, NumDocs: b.numDocs, FreqSeen: b.freqSeen, Words: refCounts(b.words), Chars: refCounts(b.chars)}
}

// refTopN is the cut by its definition: sort every gram by descending
// frequency, ties by ascending gram id, keep the first n (all when n is
// negative), number them from base in that order.
func refTopN(stats map[GramID]refStat, n int, base uint32, numDocs float64) []cvEntry {
	ranked := refCounts(stats)
	slices.SortFunc(ranked, func(a, b GramCount) int {
		return cmp.Or(cmp.Compare(b.Freq, a.Freq), cmp.Compare(a.ID, b.ID))
	})
	if n >= 0 && len(ranked) > n {
		ranked = ranked[:n]
	}
	var out []cvEntry
	for i, r := range ranked {
		out = append(out, cvEntry{id: r.ID, index: base + uint32(i), idf: idf(numDocs, float64(r.DF))})
	}
	slices.SortFunc(out, func(a, b cvEntry) int { return cmp.Compare(a.id, b.id) })
	return out
}

func (b *refBuilder) Build() *Vocabulary {
	words := refTopN(b.words, b.cfg.MaxWordGrams, 0, float64(b.numDocs))
	chars := refTopN(b.chars, b.cfg.MaxCharGrams, uint32(len(words)), float64(b.numDocs))
	return &Vocabulary{cfg: b.cfg, words: newSection(words), chars: newSection(chars), numDocs: b.numDocs}
}

// mustBuild is Build on a builder whose counters are known to be sound.
func mustBuild(t testing.TB, b *VocabBuilder) *Vocabulary {
	t.Helper()
	v, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// mustState is State on a builder whose counters are known to be sound.
func mustState(t testing.TB, b *VocabBuilder) BuilderState {
	t.Helper()
	st, err := b.State()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// assertBuilderMatchesReference holds got to ref: equal State, and Build
// tables equal entry by entry — gram id, feature index, IDF bits.
func assertBuilderMatchesReference(t *testing.T, label string, got *VocabBuilder, ref *refBuilder) {
	t.Helper()
	gs, ws := mustState(t, got), ref.State()
	if gs.Config != ws.Config || gs.NumDocs != ws.NumDocs || gs.FreqSeen != ws.FreqSeen {
		t.Fatalf("%s: state header (%d docs, seen %v), reference (%d docs, seen %v)", label, gs.NumDocs, gs.FreqSeen, ws.NumDocs, ws.FreqSeen)
	}
	if !slices.Equal(gs.Words, ws.Words) || !slices.Equal(gs.Chars, ws.Chars) {
		t.Fatalf("%s: counters diverge from the map reference\nwords %v\nref   %v\nchars %v\nref   %v", label, gs.Words, ws.Words, gs.Chars, ws.Chars)
	}
	gv, wv := mustBuild(t, got), ref.Build()
	if gv.numDocs != wv.numDocs || gv.cfg != wv.cfg {
		t.Fatalf("%s: built vocabulary header diverges", label)
	}
	for _, fam := range []struct {
		kind      string
		got, want section
	}{{"word", gv.words, wv.words}, {"char", gv.chars, wv.chars}} {
		if len(fam.got.byID) != len(fam.want.byID) {
			t.Fatalf("%s: %d %s grams kept, reference %d", label, len(fam.got.byID), fam.kind, len(fam.want.byID))
		}
		for i, e := range fam.got.byID {
			w := fam.want.byID[i]
			if e.id != w.id || e.index != w.index || math.Float64bits(e.idf) != math.Float64bits(w.idf) {
				t.Fatalf("%s: %s entry %d is {gram %d, index %d, idf %x}, reference {gram %d, index %d, idf %x}", label, fam.kind, i,
					e.id, e.index, math.Float64bits(e.idf), w.id, w.index, math.Float64bits(w.idf))
			}
		}
		if !slices.Equal(fam.got.skip, fam.want.skip) || fam.got.shift != fam.want.shift {
			t.Fatalf("%s: %s offset table diverges", label, fam.kind)
		}
	}
}

// TestSortedRunBuilderMatchesMapReference drives the sorted-run builder and
// the map reference through the same random histories — documents added,
// removed (sometimes every one of them, so whole
// grams and whole builders go back to zero), empty documents, builders
// cloned mid-history with both copies carried on, documents dealt over 1, 2,
// 3, 8 and 64 shards that settle and merge — under budgets that keep
// nothing, cut inside tie classes and keep everything. At every step that
// looks, the two agree on State and on every entry of the built tables.
func TestSortedRunBuilderMatchesMapReference(t *testing.T) {
	empty := shapeDoc(map[GramID]int{}, map[GramID]int{})
	for trial := 0; trial < 60; trial++ {
		rng := rand.New(rand.NewSource(int64(2400 + trial)))
		cfg := FinalConfig()
		switch trial % 4 {
		case 0:
			cfg.MaxWordGrams, cfg.MaxCharGrams = -1, -1
		case 1:
			cfg.MaxWordGrams, cfg.MaxCharGrams = 1+rng.Intn(12), 1+rng.Intn(25)
		case 2:
			cfg.MaxWordGrams, cfg.MaxCharGrams = 0, 1<<30
		case 3:
			cfg.MaxWordGrams, cfg.MaxCharGrams = 30, 60
		}
		type pair struct {
			got  *VocabBuilder
			ref  *refBuilder
			held []*mapDoc // what the pair currently counts
		}
		label := func(step int, what string) string { return fmt.Sprintf("trial %d step %d (%s)", trial, step, what) }
		pairs := []*pair{{got: NewVocabBuilder(cfg), ref: newRefBuilder(cfg)}}
		for step := 0; step < 40; step++ {
			p := pairs[rng.Intn(len(pairs))]
			switch op := rng.Intn(10); {
			case op < 3: // Add, now and then a document with nothing in it
				d := randomDoc(rng)
				if rng.Intn(6) == 0 {
					d = empty
				}
				p.got.AddSorted(d.Sorted())
				p.ref.Add(d)
				p.held = append(p.held, d)
			case op < 5:
				d := randomDoc(rng)
				p.got.AddSorted(d.Sorted())
				p.ref.AddSorted(d.Sorted())
				p.held = append(p.held, d)
			case op < 7 && len(p.held) > 0: // remove one — or, one time in four, all
				n := 1
				if rng.Intn(4) == 0 {
					n = len(p.held)
				}
				for ; n > 0; n-- {
					i := rng.Intn(len(p.held))
					p.got.RemoveSorted(p.held[i].Sorted())
					p.ref.RemoveSorted(p.held[i].Sorted())
					p.held = slices.Delete(slices.Clone(p.held), i, i+1)
				}
			case op == 7 && len(pairs) < 4:
				pairs = append(pairs, &pair{got: p.got.Clone(), ref: p.ref.Clone(), held: slices.Clone(p.held)})
			case op == 8: // a sharded batch, merged in
				shards := []int{1, 2, 3, 8, 64}[rng.Intn(5)]
				gots, refs := make([]*VocabBuilder, shards), make([]*refBuilder, shards)
				for s := range gots {
					gots[s], refs[s] = NewVocabBuilder(cfg), newRefBuilder(cfg)
				}
				for i, n := 0, rng.Intn(20); i < n; i++ {
					d := randomDoc(rng)
					gots[i%shards].AddSorted(d.Sorted())
					refs[i%shards].AddSorted(d.Sorted())
					p.held = append(p.held, d)
				}
				for s := range gots {
					if err := p.got.Merge(gots[s]); err != nil {
						t.Fatalf("%s: %v", label(step, "merge"), err)
					}
					p.ref.Merge(refs[s])
				}
			default:
				assertBuilderMatchesReference(t, label(step, "mid-history"), p.got, p.ref)
			}
		}
		for i, p := range pairs {
			assertBuilderMatchesReference(t, label(40, fmt.Sprintf("builder %d at the end", i)), p.got, p.ref)
			// Take everything out again: no gram and no document is left.
			for _, d := range p.held {
				p.got.RemoveSorted(d.Sorted())
				p.ref.RemoveSorted(d.Sorted())
			}
			assertBuilderMatchesReference(t, label(40, fmt.Sprintf("builder %d emptied", i)), p.got, p.ref)
			if st := mustState(t, p.got); st.NumDocs != 0 || len(st.Words)+len(st.Chars) != 0 {
				t.Fatalf("trial %d builder %d: %d documents and %d grams left after removing every document", trial, i, st.NumDocs, len(st.Words)+len(st.Chars))
			}
		}
	}
}

// TestBuilderSettlesMidStream: documents large enough that batches close
// while the stream is still running — several times, each merge against a
// grown array — leave the counters a single batch would.
func TestBuilderSettlesMidStream(t *testing.T) {
	rng := rand.New(rand.NewSource(2500))
	cfg := FinalConfig()
	cfg.MaxWordGrams, cfg.MaxCharGrams = 5000, 9000
	got, ref := NewVocabBuilder(cfg), newRefBuilder(cfg)
	settled := 0
	for i := 0; i < 40; i++ {
		words, chars := make(map[GramID]int), make(map[GramID]int)
		for j := 0; j < 9000; j++ {
			words[GramID(rng.Intn(40000))] += 1 + rng.Intn(3)
			chars[GramID(rng.Intn(15000))] += 1 + rng.Intn(5)
		}
		d := shapeDoc(words, chars)
		got.AddSorted(d.Sorted())
		ref.Add(d)
		if len(got.pending) == 0 {
			settled++
		}
	}
	if settled < 3 || settled > 20 {
		t.Errorf("40 documents of ≈ 18,000 entries closed %d batches, want several and far fewer than one a document", settled)
	}
	assertBuilderMatchesReference(t, "mid-stream batches", got, ref)
}

// TestCutOverCorpusFrequencies runs the corpus builder's cut where a
// query's never goes: frequencies at, around and far past the 16-bit digit
// (the two-pass rank), beside equal-frequency runs thousands of grams long
// that every budget cuts inside of.
func TestCutOverCorpusFrequencies(t *testing.T) {
	rng := rand.New(rand.NewSource(2600))
	docs := rankShapes(rng)["huge_frequency"]
	// A second tie class, of a frequency past one digit, summed over documents.
	tie := flatGrams(900000, 2500, 1<<15, false)
	docs = append(docs, shapeDoc(tie, map[GramID]int{}), shapeDoc(tie, map[GramID]int{}), shapeDoc(tie, map[GramID]int{}))
	w, c := distinctGrams(docs)
	for _, budget := range [][2]int{{-1, -1}, {0, 0}, {1, 1}, {3, 2}, {4, 1999}, {1250, 2000}, {2504, 2001}, {w - 1, c - 1}, {w, c}, {w + 5, c + 5}} {
		cfg := FinalConfig()
		cfg.MaxWordGrams, cfg.MaxCharGrams = budget[0], budget[1]
		got := NewVocabBuilder(cfg)
		for _, d := range docs {
			got.AddSorted(d.Sorted())
		}
		st := mustState(t, got)
		if top := slices.MaxFunc(st.Words, func(a, b GramCount) int { return cmp.Compare(a.Freq, b.Freq) }); top.Freq != 1<<30 {
			t.Fatalf("largest corpus frequency %d, want 2^30 (two documents of 2^29)", top.Freq)
		}
		assertBuilderMatchesReference(t, fmt.Sprintf("budgets %d/%d", budget[0], budget[1]), got, refBuilderOf(cfg, docs...))
	}
}

// TestBuilderRefusesWhatItNeverCounted: a removal the counters do not cover,
// and a count past their width, is an error out of Settle, Merge, State and
// Build — not a negative counter carried along in silence — and it stays one.
func TestBuilderRefusesWhatItNeverCounted(t *testing.T) {
	cfg := FinalConfig()
	doc := func(words map[GramID]int) *SortedDoc { return shapeDoc(words, map[GramID]int{}).Sorted() }
	big := math.MaxInt32
	cases := []struct {
		name        string
		add, remove []*SortedDoc
	}{
		{"document never added", []*SortedDoc{doc(map[GramID]int{1: 2, 2: 1})}, []*SortedDoc{doc(map[GramID]int{1: 2, 3: 1})}},
		{"document removed twice", []*SortedDoc{doc(map[GramID]int{1: 2}), doc(map[GramID]int{5: 1})}, []*SortedDoc{doc(map[GramID]int{1: 2}), doc(map[GramID]int{1: 2})}},
		{"more occurrences removed than counted", []*SortedDoc{doc(map[GramID]int{1: 2}), doc(map[GramID]int{1: 1})}, []*SortedDoc{doc(map[GramID]int{1: 4})}},
		{"occurrences left in no document", []*SortedDoc{doc(map[GramID]int{1: 5})}, []*SortedDoc{doc(map[GramID]int{1: 2})}},
		{"removal from an empty builder", nil, []*SortedDoc{doc(map[GramID]int{})}},
		{"count one past int32", []*SortedDoc{doc(map[GramID]int{1: big}), doc(map[GramID]int{1: 1})}, nil},
		{"count past int32 beside one that fits", []*SortedDoc{doc(map[GramID]int{1: big - 1, 2: big}), doc(map[GramID]int{1: 2})}, nil},
		{"count past int32 summed over many", []*SortedDoc{doc(map[GramID]int{1: big / 2}), doc(map[GramID]int{1: big / 2}), doc(map[GramID]int{1: big / 2}), doc(map[GramID]int{1: big / 2}), doc(map[GramID]int{1: big / 2})}, nil},
	}
	for _, c := range cases {
		b := NewVocabBuilder(cfg)
		for _, d := range c.add {
			b.AddSorted(d)
		}
		for _, d := range c.remove {
			b.RemoveSorted(d)
		}
		err := b.Settle()
		if err == nil {
			st, _ := b.State()
			t.Errorf("%s: settled to %v", c.name, st.Words)
			continue
		}
		t.Logf("%s: %v", c.name, err)
		if _, berr := b.Build(); berr == nil {
			t.Errorf("%s: Build succeeded after Settle failed", c.name)
		}
		if _, serr := b.State(); serr == nil {
			t.Errorf("%s: State succeeded after Settle failed", c.name)
		}
		if merr := NewVocabBuilder(cfg).Merge(b); merr == nil {
			t.Errorf("%s: merged into another builder", c.name)
		}
		b.AddSorted(doc(map[GramID]int{9: 1}))
		if b.Settle() == nil {
			t.Errorf("%s: the error did not outlast a later document", c.name)
		}
	}

	// The widest counters that fit do, and merging two such builders does not.
	a, b := NewVocabBuilder(cfg), NewVocabBuilder(cfg)
	a.AddSorted(doc(map[GramID]int{1: big - 1}))
	a.AddSorted(doc(map[GramID]int{1: 1}))
	b.AddSorted(doc(map[GramID]int{1: 1}))
	if st, err := a.State(); err != nil || st.Words[0] != (GramCount{ID: 1, Freq: math.MaxInt32, DF: 2}) {
		t.Fatalf("counter of exactly 2^31-1: %v, %v", st.Words, err)
	}
	if err := a.Merge(b); err == nil || !strings.Contains(err.Error(), "gram 1") {
		t.Errorf("merge past int32: %v, want an error naming gram 1", err)
	}

	// A state no builder emits is refused on the way in.
	good := BuilderState{Config: cfg, NumDocs: 2, Words: []GramCount{{ID: 1, Freq: 3, DF: 2}, {ID: 4, Freq: 1, DF: 1}}}
	if _, err := NewVocabBuilderFromState(good); err != nil {
		t.Fatalf("sound state refused: %v", err)
	}
	for name, words := range map[string][]GramCount{
		"ids descend":               {{ID: 4, Freq: 1, DF: 1}, {ID: 1, Freq: 3, DF: 2}},
		"id repeats":                {{ID: 1, Freq: 3, DF: 2}, {ID: 1, Freq: 1, DF: 1}},
		"in more documents than is": {{ID: 1, Freq: 3, DF: 3}},
		"in no document":            {{ID: 1, Freq: 3, DF: 0}},
		"fewer occurrences than df": {{ID: 1, Freq: 1, DF: 2}},
	} {
		bad := good
		bad.Words = words
		if _, err := NewVocabBuilderFromState(bad); err == nil {
			t.Errorf("state whose %s accepted", name)
		}
		bad.Words, bad.Chars = nil, words
		if _, err := NewVocabBuilderFromState(bad); err == nil {
			t.Errorf("state whose char %s accepted", name)
		}
	}
	if !reflect.DeepEqual(good.Words, []GramCount{{ID: 1, Freq: 3, DF: 2}, {ID: 4, Freq: 1, DF: 1}}) {
		t.Error("NewVocabBuilderFromState wrote into the state it was given")
	}
}
