package attribution

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"darklight/internal/features"
	"darklight/internal/sparse"
)

// refEntry is one selected gram of a cut in id-sorted form.
type refEntry struct {
	id    features.GramID
	index uint32
	idf   float64
}

// refTables is a vocabulary as two id-sorted tables of its selected grams,
// the form a Vocabulary held before its feature table by dictionary number.
type refTables struct {
	words, chars []refEntry
}

// refCut is the cut by its definition over a builder's counters and its
// document count N: per family every gram by descending frequency, ties by
// ascending gram id, the first n kept (all when n is negative) and numbered
// from base in that order, with the smoothed IDF ln((1+N)/(1+df)); then
// sorted back by gram id. It shares no code with the builder's
// counting-sort cut.
func refCut(st features.BuilderState, numDocs int, cfg features.Config) refTables {
	family := func(counts []features.GramCount, n int, base uint32) []refEntry {
		ranked := slices.Clone(counts)
		slices.SortFunc(ranked, func(a, b features.GramCount) int {
			return cmp.Or(cmp.Compare(b.Freq, a.Freq), cmp.Compare(a.ID, b.ID))
		})
		if n >= 0 && len(ranked) > n {
			ranked = ranked[:n]
		}
		out := make([]refEntry, 0, len(ranked))
		for i, g := range ranked {
			out = append(out, refEntry{id: g.ID, index: base + uint32(i), idf: math.Log((1 + float64(numDocs)) / (1 + float64(g.DF)))})
		}
		slices.SortFunc(out, func(a, b refEntry) int { return cmp.Compare(a.id, b.id) })
		return out
	}
	words := family(st.Words, cfg.MaxWordGrams, 0)
	return refTables{words: words, chars: family(st.Chars, cfg.MaxCharGrams, uint32(len(words)))}
}

// gramsOf reads d's gram families back, ascending by id, from the counters
// of a builder fed d alone: each gram's Freq is its count in d.
func gramsOf(d *features.PackedDoc) (words, chars []features.GramCount) {
	b := features.NewVocabBuilder(features.Config{})
	b.Add(d)
	st, err := b.State()
	if err != nil {
		panic(err) // one added document: the counters cannot refuse it
	}
	return st.Words, st.Chars
}

// vectorize is the id merge the number path replaced: d's id-sorted gram
// lists merged against the tables, then sorted by feature index.
func (r refTables) vectorize(d *features.PackedDoc) sparse.Vector {
	vec := sparse.Vector{Idx: []uint32{}, Val: []float64{}}
	words, chars := gramsOf(d)
	mergeVectorize(&vec, words, r.words, float64(max(d.WordTotal, 1)))
	mergeVectorize(&vec, chars, r.chars, float64(max(d.CharTotal, 1)))
	vec.Sort()
	return vec
}

// mergeVectorize appends the entries of the grams doc shares with the
// table: both are sorted by gram id, so one two-pointer pass finds them.
func mergeVectorize(vec *sparse.Vector, doc []features.GramCount, table []refEntry, den float64) {
	i, j := 0, 0
	for i < len(doc) && j < len(table) {
		switch {
		case doc[i].ID < table[j].id:
			i++
		case doc[i].ID > table[j].id:
			j++
		default:
			vec.Idx = append(vec.Idx, table[j].index)
			vec.Val = append(vec.Val, float64(doc[i].Freq)/den*table[j].idf)
			i++
			j++
		}
	}
}

// assertVectorBits fails unless got holds want's indices and value bits.
func assertVectorBits(t *testing.T, label string, got, want sparse.Vector) {
	t.Helper()
	if !slices.Equal(got.Idx, want.Idx) || len(got.Val) != len(want.Val) {
		t.Fatalf("%s: %d indices, reference %d\ngot  %v\nwant %v", label, len(got.Idx), len(want.Idx), got.Idx, want.Idx)
	}
	for k := range want.Val {
		if math.Float64bits(got.Val[k]) != math.Float64bits(want.Val[k]) {
			t.Fatalf("%s: value %d is %x, reference %x", label, k, math.Float64bits(got.Val[k]), math.Float64bits(want.Val[k]))
		}
	}
}

// TestVectorizeMatchesMergeReference: stage 1 vectorizes every known
// subject in the index pass (read back through the forward lists a pruned
// query re-derives from the arena) and every query in Prepare through the
// cut's feature table, from documents numbered by the dictionary. Both must equal,
// bit for bit, mergeVectorize of the subject's id-sorted extraction against
// refCut of the matcher's counters, normalised — across random worlds, with
// empty known subjects, probes of noise and empty probes, a probe of words
// no known subject used (grams absent from the dictionary), one mixing such
// words into a known text, and one of a single subject's private word,
// which budgets of 40 word grams and no char gram leave with no gram in the
// cut; under the paper's budgets and those.
func TestVectorizeMatchesMergeReference(t *testing.T) {
	paper := testOptions()
	paper.Incremental = true
	binding := paper
	binding.Reduction.MaxWordGrams, binding.Reduction.MaxCharGrams = 40, 0
	for world := range 4 {
		known, probes := randomWorld(rand.New(rand.NewSource(int64(4200+world))), 30)
		private := ""
		for i := 0; private == ""; i++ {
			if word := fmt.Sprintf("pw%dq", i); strings.Contains(known[i].Text, word) {
				private = word + " " + word
			}
		}
		probes = append(probes,
			Subject{Name: "absent", Text: "zqxjv wuvk"},
			Subject{Name: "mixed", Text: "ÿŷÿŷ zqxjv wuvk " + known[1].Text},
			Subject{Name: "private", Text: private})
		for oi, opts := range []Options{paper, binding} {
			m, err := NewMatcher(known, opts)
			if err != nil {
				t.Fatal(err)
			}
			st, err := m.stats.State()
			if err != nil {
				t.Fatal(err)
			}
			ref := refCut(st, len(known), opts.Reduction)
			fwdIdx, fwdVal := m.forward()
			for i := range known {
				want := ref.vectorize(features.Extract(known[i].Text, opts.Reduction)).Normalize()
				for k, v := range want.Val {
					want.Val[k] = float64(float32(v)) // the forward lists hold the postings' float32
				}
				got := sparse.Vector{Idx: fwdIdx[i], Val: make([]float64, len(fwdVal[i]))}
				for k, v := range fwdVal[i] {
					got.Val[k] = float64(v)
				}
				assertVectorBits(t, fmt.Sprintf("world %d options %d known %d", world, oi, i), got, want)
			}
			for p := range probes {
				label := fmt.Sprintf("world %d options %d probe %s", world, oi, probes[p].Name)
				q := m.Prepare(&probes[p])
				assertVectorBits(t, label, q.ub.grams, ref.vectorize(features.Extract(probes[p].Text, opts.Reduction)).Normalize())
				// The cases are what they claim to be.
				words, _ := q.doc.Lists()
				switch name, held := probes[p].Name, features.PackedLen(words); {
				case name == "absent" && held != 0:
					t.Fatalf("%s: its words are in the dictionary", label)
				case name == "private" && oi == 1 && (held == 0 || q.ub.grams.Len() != 0):
					t.Fatalf("%s: %d dictionary grams, %d of them in the cut; want some and none", label, held, q.ub.grams.Len())
				}
			}
		}
	}
}

// TestFoldRenumbersAsFresh is the property of Fold's renumbering. A chain of
// random batches folds into one matcher, at 1 and 3 workers: one brings
// grams new to the corpus, one replaces a subject with another's text so
// that grams it alone held leave the dictionary, one adds a newcomer, and
// one changes no gram set at all — a subject folded in again with its own
// text. After every batch each document the matcher holds must carry the
// numbers a fresh numbering of its extraction by the new counters gives;
// where no gram entered or left, the unchanged documents must be the ones
// the previous generation held, shared and not copied. State, rank bits
// and rescore bits must equal a rebuild's over the same subjects.
func TestFoldRenumbersAsFresh(t *testing.T) {
	for world := range 3 {
		rng := rand.New(rand.NewSource(int64(4300 + world)))
		known, probes := randomWorld(rng, 24)
		for _, workers := range []int{1, 3} {
			opts := testOptions()
			opts.Workers, opts.Incremental = workers, true
			m, err := NewMatcher(known, opts)
			if err != nil {
				t.Fatal(err)
			}
			current := slices.Clone(known)
			// pick is a subject of at least 30 words: one holding grams no
			// other subject does.
			pick := func() int {
				for {
					if i := rng.Intn(len(current)); len(strings.Fields(current[i].Text)) >= 30 {
						return i
					}
				}
			}
			type batch struct {
				name          string
				changed       []Subject
				enter, leave  bool
				sameDocuments bool
			}
			// The batches in order, each made from the subjects the ones
			// before it left, naming what it must do to the dictionary.
			batches := []func() batch{
				func() batch {
					grown := current[pick()]
					grown.Text += fmt.Sprintf(" zyzzyva%d quokka%d", world, workers)
					return batch{name: "new grams", changed: []Subject{grown}, enter: true}
				},
				func() batch {
					j, k := pick(), pick()
					for current[k].Text == current[j].Text {
						k = pick()
					}
					replaced := current[j]
					replaced.Text = current[k].Text
					return batch{name: "grams leave", changed: []Subject{replaced}, leave: true}
				},
				func() batch {
					newcomer := Subject{Name: fmt.Sprintf("known%03da", rng.Intn(24)), Text: fmt.Sprintf("a newcomer nw%dq writes ", world) + probes[0].Text}
					return batch{name: "newcomer", changed: []Subject{newcomer}, enter: true}
				},
				func() batch {
					return batch{name: "no gram set changes", changed: []Subject{current[pick()]}, sameDocuments: true}
				},
			}
			for _, next := range batches {
				b := next()
				label := fmt.Sprintf("world %d workers %d batch %q", world, workers, b.name)
				folded, err := m.Fold(context.Background(), b.changed)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				before, _ := m.stats.State()
				after, err := folded.State()
				if err != nil {
					t.Fatal(err)
				}
				entered, left := gramSetChange(before.Words, after.Stats.Words)
				ce, cl := gramSetChange(before.Chars, after.Stats.Chars)
				if entered, left = entered || ce, left || cl; entered != b.enter || left != b.leave {
					t.Fatalf("%s: grams entered %v, left %v", label, entered, left)
				}

				current = foldSubjects(current, b.changed)
				dict := folded.vocab.Dictionary()
				changed := make(map[string]bool)
				for _, c := range b.changed {
					changed[c.Name] = true
				}
				for n := range current {
					if want := dict.Number(features.Extract(current[n].Text, opts.Reduction)); !reflect.DeepEqual(folded.docs[n], want) {
						t.Fatalf("%s: subject %s holds other numbers than a fresh numbering gives", label, current[n].Name)
					}
					if b.sameDocuments && !changed[current[n].Name] && folded.docs[n] != m.docs[n] {
						t.Fatalf("%s: unchanged subject %s's document was copied, not shared", label, current[n].Name)
					}
				}

				rebuilt, err := NewMatcher(current, opts)
				if err != nil {
					t.Fatal(err)
				}
				want, err := rebuilt.State()
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(after.Stats, want.Stats) || !reflect.DeepEqual(after.Docs, want.Docs) {
					t.Fatalf("%s: folded state differs from a rebuild's", label)
				}
				assertMatchersEquivalent(t, folded, rebuilt, probes)
				for p := range probes {
					cands := rebuilt.Rank(&probes[p], 8)
					assertSameScores(t, label+" rescore", folded.Prepare(&probes[p]).Rescore(cands), rebuilt.Prepare(&probes[p]).Rescore(cands))
				}
				m = folded
			}
		}
	}
}

// gramSetChange reports whether any gram of cur is not in old (entered) and
// whether any of old is not in cur (left).
func gramSetChange(old, cur []features.GramCount) (entered, left bool) {
	ids := func(gs []features.GramCount) map[features.GramID]bool {
		out := make(map[features.GramID]bool, len(gs))
		for _, g := range gs {
			out[g.ID] = true
		}
		return out
	}
	o, c := ids(old), ids(cur)
	for id := range c {
		entered = entered || !o[id]
	}
	for id := range o {
		left = left || !c[id]
	}
	return entered, left
}

// foldSubjects is the known set a Fold of changed leaves: each replaces the
// subject of its name or joins, sorted by name.
func foldSubjects(known, changed []Subject) []Subject {
	out := slices.Clone(known)
	for _, c := range changed {
		if i := slices.IndexFunc(out, func(s Subject) bool { return s.Name == c.Name }); i >= 0 {
			out[i] = c
		} else {
			out = append(out, c)
		}
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].Name < out[b].Name })
	return out
}
