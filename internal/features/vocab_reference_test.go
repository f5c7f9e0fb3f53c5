package features

import (
	"cmp"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// refBuilder is the hash-map VocabBuilder the sorted-run one replaced, kept
// as the tests' reference: two maps of counters, a comparison sort by rank
// for the cut and another by gram id for the state and the tables. It shares
// no counting, merging or ranking code with the builder under test — only
// idf.
type refBuilder struct {
	cfg     Config
	words   map[GramID]refStat
	chars   map[GramID]refStat
	numDocs int
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

func (b *refBuilder) Add(d *mapDoc)    { b.fold(d, 1) }
func (b *refBuilder) Remove(d *mapDoc) { b.fold(d, -1) }

func (b *refBuilder) fold(d *mapDoc, sign int) {
	b.numDocs += sign
	for f, grams := range []map[GramID]int{d.WordGrams, d.CharGrams} {
		stats := [...]map[GramID]refStat{b.words, b.chars}[f]
		for g, c := range grams {
			s := stats[g]
			s = refStat{s.freq + sign*c, s.df + sign}
			if s == (refStat{}) {
				delete(stats, g)
			} else {
				stats[g] = s
			}
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
	return BuilderState{Words: refCounts(b.words), Chars: refCounts(b.chars)}
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

func (b *refBuilder) Build() refVocab {
	words := refTopN(b.words, b.cfg.MaxWordGrams, 0, float64(b.numDocs))
	chars := refTopN(b.chars, b.cfg.MaxCharGrams, uint32(len(words)), float64(b.numDocs))
	return refVocab{words: words, chars: chars}
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

// assertBuilderMatchesReference holds got to ref: equal configuration,
// document count and State, and Build tables equal entry by entry — gram id,
// feature index, IDF bits.
func assertBuilderMatchesReference(t *testing.T, label string, got *VocabBuilder, ref *refBuilder) {
	t.Helper()
	if got.cfg != ref.cfg || got.numDocs != ref.numDocs {
		t.Fatalf("%s: %d documents under %+v, reference %d under %+v", label, got.numDocs, got.cfg, ref.numDocs, ref.cfg)
	}
	gs, ws := mustState(t, got), ref.State()
	if !slices.Equal(gs.Words, ws.Words) || !slices.Equal(gs.Chars, ws.Chars) {
		t.Fatalf("%s: counters diverge from the map reference\nwords %v\nref   %v\nchars %v\nref   %v", label, gs.Words, ws.Words, gs.Chars, ws.Chars)
	}
	built := mustBuild(t, got)
	gv, wv := tablesOf(built), ref.Build()
	if built.cfg != ref.cfg {
		t.Fatalf("%s: built vocabulary header diverges", label)
	}
	for _, fam := range []struct {
		kind      string
		got, want []cvEntry
	}{{"word", gv.words, wv.words}, {"char", gv.chars, wv.chars}} {
		if len(fam.got) != len(fam.want) {
			t.Fatalf("%s: %d %s grams kept, reference %d", label, len(fam.got), fam.kind, len(fam.want))
		}
		for i, e := range fam.got {
			w := fam.want[i]
			if e.id != w.id || e.index != w.index || math.Float64bits(e.idf) != math.Float64bits(w.idf) {
				t.Fatalf("%s: %s entry %d is {gram %d, index %d, idf %x}, reference {gram %d, index %d, idf %x}", label, fam.kind, i,
					e.id, e.index, math.Float64bits(e.idf), w.id, w.index, math.Float64bits(w.idf))
			}
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
			case op < 5: // Add, now and then a document with nothing in it
				d := randomDoc(rng)
				if op < 3 && rng.Intn(6) == 0 {
					d = empty
				}
				p.got.Add(d.packed())
				p.ref.Add(d)
				p.held = append(p.held, d)
			case op < 7 && len(p.held) > 0: // remove one — or, one time in four, all
				n := 1
				if rng.Intn(4) == 0 {
					n = len(p.held)
				}
				for ; n > 0; n-- {
					i := rng.Intn(len(p.held))
					p.got.Remove(p.held[i].packed())
					p.ref.Remove(p.held[i])
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
					gots[i%shards].Add(d.packed())
					refs[i%shards].Add(d)
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
				p.got.Remove(d.packed())
				p.ref.Remove(d)
			}
			assertBuilderMatchesReference(t, label(40, fmt.Sprintf("builder %d emptied", i)), p.got, p.ref)
			if st := mustState(t, p.got); p.got.numDocs != 0 || len(st.Words)+len(st.Chars) != 0 {
				t.Fatalf("trial %d builder %d: %d documents and %d grams left after removing every document", trial, i, p.got.numDocs, len(st.Words)+len(st.Chars))
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
		got.Add(d.packed())
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
			got.Add(d.packed())
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
	doc := func(words map[GramID]int) *PackedDoc { return shapeDoc(words, map[GramID]int{}).packed() }
	big := math.MaxInt32
	cases := []struct {
		name        string
		add, remove []*PackedDoc
	}{
		{"document never added", []*PackedDoc{doc(map[GramID]int{1: 2, 2: 1})}, []*PackedDoc{doc(map[GramID]int{1: 2, 3: 1})}},
		{"document removed twice", []*PackedDoc{doc(map[GramID]int{1: 2}), doc(map[GramID]int{5: 1})}, []*PackedDoc{doc(map[GramID]int{1: 2}), doc(map[GramID]int{1: 2})}},
		{"more occurrences removed than counted", []*PackedDoc{doc(map[GramID]int{1: 2}), doc(map[GramID]int{1: 1})}, []*PackedDoc{doc(map[GramID]int{1: 4})}},
		{"occurrences left in no document", []*PackedDoc{doc(map[GramID]int{1: 5})}, []*PackedDoc{doc(map[GramID]int{1: 2})}},
		{"removal from an empty builder", nil, []*PackedDoc{doc(map[GramID]int{})}},
		{"count one past int32", []*PackedDoc{doc(map[GramID]int{1: big}), doc(map[GramID]int{1: 1})}, nil},
		{"count past int32 beside one that fits", []*PackedDoc{doc(map[GramID]int{1: big - 1, 2: big}), doc(map[GramID]int{1: 2})}, nil},
		{"count past int32 summed over many", []*PackedDoc{doc(map[GramID]int{1: big / 2}), doc(map[GramID]int{1: big / 2}), doc(map[GramID]int{1: big / 2}), doc(map[GramID]int{1: big / 2}), doc(map[GramID]int{1: big / 2})}, nil},
	}
	for _, c := range cases {
		b := NewVocabBuilder(cfg)
		for _, d := range c.add {
			b.Add(d)
		}
		for _, d := range c.remove {
			b.Remove(d)
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
		b.Add(doc(map[GramID]int{9: 1}))
		if b.Settle() == nil {
			t.Errorf("%s: the error did not outlast a later document", c.name)
		}
	}

	// The widest counters that fit do, and merging two such builders does not.
	a, b := NewVocabBuilder(cfg), NewVocabBuilder(cfg)
	a.Add(doc(map[GramID]int{1: big - 1}))
	a.Add(doc(map[GramID]int{1: 1}))
	b.Add(doc(map[GramID]int{1: 1}))
	if st, err := a.State(); err != nil || st.Words[0] != (GramCount{ID: 1, Freq: math.MaxInt32, DF: 2}) {
		t.Fatalf("counter of exactly 2^31-1: %v, %v", st.Words, err)
	}
	if err := a.Merge(b); err == nil || !strings.Contains(err.Error(), "gram 1") {
		t.Errorf("merge past int32: %v, want an error naming gram 1", err)
	}
}
