package features

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// This file is the persistence and incremental-maintenance surface of the
// vocabulary layer. A VocabBuilder's counters are already the value type the
// store serialises, so State hands the arrays out and
// NewVocabBuilderFromState takes them in; and because counting is plain
// sums, documents can also be *subtracted* (RemoveSorted), which is what
// lets a live index fold an updated alias in without rebuilding from
// scratch.

// GramCount is one gram's corpus counters: total occurrences and the number
// of documents holding it. Lists of them ascend by gram id. It is the entry
// of every counting merge of a corpus's documents and shards, and of stage
// 2's aggregate over a query's candidates; int32 keeps it at 16 bytes, and a
// merge streams every entry log n times.
type GramCount struct {
	ID   GramID
	Freq int32
	DF   int32
}

// BuilderState is the full counter set of a VocabBuilder as value types.
// NewVocabBuilderFromState(b.State()) reconstructs a builder that Builds
// the bit-identical Vocabulary. The gram lists are the builder's own
// arrays: read-only.
type BuilderState struct {
	Config   Config
	NumDocs  int
	FreqSeen [NumFreqFeatures]int
	Words    []GramCount // ascending gram id
	Chars    []GramCount // ascending gram id
}

// State snapshots the builder's counters.
func (b *VocabBuilder) State() (BuilderState, error) {
	if err := b.Settle(); err != nil {
		return BuilderState{}, err
	}
	return BuilderState{Config: b.cfg, NumDocs: b.numDocs, FreqSeen: b.freqSeen, Words: b.words, Chars: b.chars}, nil
}

// NewVocabBuilderFromState reconstructs a builder from a snapshot, adopting
// its gram lists. A list out of gram-id order, which the cut's tie-break
// rests on, or a counter NumDocs documents cannot produce is an error.
func NewVocabBuilderFromState(st BuilderState) (*VocabBuilder, error) {
	for _, grams := range [...][]GramCount{st.Words, st.Chars} {
		for i, g := range grams {
			if i > 0 && grams[i-1].ID >= g.ID {
				return nil, fmt.Errorf("features: builder state: gram %d at position %d after gram %d", g.ID, i, grams[i-1].ID)
			}
			if err := g.check(st.NumDocs); err != nil {
				return nil, err
			}
		}
	}
	return &VocabBuilder{cfg: st.Config, words: st.Words, chars: st.Chars, numDocs: st.NumDocs, freqSeen: st.FreqSeen}, nil
}

// GramIndex numbers grams by their position in one of a BuilderState's
// ascending gram lists — the form a document is held, saved and loaded in —
// through a top-bits offset table of the ids, so numbering an entry is a
// slot lookup and a step or two, not a search.
type GramIndex struct {
	grams []GramCount
	skip  []uint32
	shift uint
}

// IndexGrams indexes grams, which must ascend by id.
func IndexGrams(grams []GramCount) GramIndex {
	b := min(bits.Len(uint(len(grams))), 16)
	x := GramIndex{grams: grams, skip: make([]uint32, 1<<b+1), shift: uint(64 - b)}
	// skip[h] is the position of the first gram whose id>>shift is at least
	// h: one slot per gram rounded up to a power of two (at most 2^16). Gram
	// ids are uniform hashes, so a slot covers a few grams at most and a
	// lookup lands next to its answer.
	for _, g := range grams {
		x.skip[g.ID>>x.shift+1]++
	}
	for h := 1; h < len(x.skip); h++ {
		x.skip[h] += x.skip[h-1]
	}
	return x
}

// Number returns id's position in the indexed list, false when it is not
// there.
func (x GramIndex) Number(id GramID) (uint32, bool) {
	for j := x.skip[id>>x.shift]; int(j) < len(x.grams) && x.grams[j].ID <= id; j++ {
		if x.grams[j].ID == id {
			return j, true
		}
	}
	return 0, false
}

// notNumbered is above every dictionary number: the end sentinel of stage
// 2's walk, and a gram a renumbering drops.
const notNumbered = math.MaxUint32

// numberAll appends an entry for every gram of es, an id-sorted gram list,
// that the index holds, with its number in place of its id: one forward
// walk, since the list and the indexed grams both ascend, that jumps to the
// slot of the next entry's id rather than stepping over grams the list does
// not hold.
func (x GramIndex) numberAll(out []NumEntry, es []GramEntry) []NumEntry {
	j := 0
	for _, e := range es {
		j = max(j, int(x.skip[e.ID>>x.shift]))
		for j < len(x.grams) && x.grams[j].ID < e.ID {
			j++
		}
		if j < len(x.grams) && x.grams[j].ID == e.ID {
			out = append(out, NumEntry{Num: uint32(j), Count: e.Count})
		}
	}
	return out
}

// Dictionary numbers the grams of a corpus: a word gram by its position in
// one ascending gram list, a char gram by its position in another — the
// lists a BuilderState holds. Numbers ascend with gram id, so a numbered
// document's entries ascend in number as they do in id. Immutable; safe for
// concurrent use.
type Dictionary struct {
	words, chars GramIndex
}

// NewDictionary indexes the word and char gram lists, which must ascend by
// id. The lists are retained, not copied.
func NewDictionary(words, chars []GramCount) *Dictionary {
	return &Dictionary{words: IndexGrams(words), chars: IndexGrams(chars)}
}

// NumEntry is one (dictionary number, count) pair of a numbered gram list.
type NumEntry struct {
	Num   uint32
	Count int32
}

// NumberedDoc is a document with its grams as dictionary numbers: per gram
// family one list of (number, count) ascending by number, beside the totals
// and frequencies of the SortedDoc it was numbered from. A gram the
// dictionary does not hold is not in it; the totals still count it. It is
// the one form a known subject's document is held in — what a snapshot
// stores, what stage 1 vectorizes and what stage 2 reads — and the form a
// query is vectorized and rescored in.
type NumberedDoc struct {
	Words, Chars []NumEntry
	WordTotal    int
	CharTotal    int
	Freq         [NumFreqFeatures]float64
	TotalChars   int
}

// Number numbers d, its two lists in one fresh array of 8 bytes an entry.
func (x *Dictionary) Number(d *SortedDoc) *NumberedDoc {
	nd := new(NumberedDoc)
	x.NumberInto(nd, d)
	return nd
}

// NumberInto is Number into nd: into its own storage, which grows only when
// d has more entries than nd held before, or into one fresh array for both
// lists when nd holds none.
func (x *Dictionary) NumberInto(nd *NumberedDoc, d *SortedDoc) {
	if cap(nd.Words) == 0 && cap(nd.Chars) == 0 {
		// The words are clipped, so that reusing nd never grows them into
		// the chars that follow.
		nd.Words = x.words.numberAll(make([]NumEntry, 0, len(d.WordGrams)+len(d.CharGrams)), d.WordGrams)
		nd.Chars = x.chars.numberAll(nd.Words[len(nd.Words):], d.CharGrams)
		nd.Words = slices.Clip(nd.Words)
	} else {
		nd.Words = x.words.numberAll(nd.Words[:0], d.WordGrams)
		nd.Chars = x.chars.numberAll(nd.Chars[:0], d.CharGrams)
	}
	nd.WordTotal, nd.CharTotal, nd.Freq, nd.TotalChars = d.WordTotal, d.CharTotal, d.Freq, d.TotalChars
}

// Check reports a document that is not numbered by x: a number past the
// dictionary, or numbers that do not strictly ascend.
func (x *Dictionary) Check(d *NumberedDoc) error {
	for _, fam := range [...]struct {
		es   []NumEntry
		size int
	}{{d.Words, len(x.words.grams)}, {d.Chars, len(x.chars.grams)}} {
		for k, e := range fam.es {
			if int64(e.Num) >= int64(fam.size) || k > 0 && e.Num <= fam.es[k-1].Num {
				return fmt.Errorf("features: gram number %d at entry %d of a list over a %d-gram dictionary: out of range or out of order", e.Num, k, fam.size)
			}
		}
	}
	return nil
}

// RemoveNumbered subtracts documents numbered by the builder's own counter
// arrays — the lists State returned, before anything was added or removed
// since — from the counters, each entry a decrement of the counter its
// number names: no merge, no lookup. Grams whose counters reach zero leave
// the arrays. The builder must have nothing pending. A document the counters
// do not hold, or a number past them, latches the builder's error.
func (b *VocabBuilder) RemoveNumbered(docs []*NumberedDoc) {
	if b.err != nil || len(docs) == 0 {
		return
	}
	if len(b.pending) > 0 {
		b.err = fmt.Errorf("features: numbered removal from a builder with %d documents pending", len(b.pending))
		return
	}
	// The settled arrays may be shared (Clone, State): the decrements go to
	// copies.
	words, chars := slices.Clone(b.words), slices.Clone(b.chars)
	for _, d := range docs {
		for _, fam := range [...]struct {
			es     []NumEntry
			counts []GramCount
		}{{d.Words, words}, {d.Chars, chars}} {
			for _, e := range fam.es {
				if int64(e.Num) >= int64(len(fam.counts)) {
					b.err = fmt.Errorf("features: removed document names gram number %d of %d", e.Num, len(fam.counts))
					return
				}
				// What is left is a count over the documents still held, so
				// it never drops below DF occurrences in DF >= 0 documents.
				g := &fam.counts[e.Num]
				if g.Freq, g.DF = g.Freq-e.Count, g.DF-1; g.DF < 0 || g.Freq < g.DF {
					b.err = fmt.Errorf("features: gram %d left with %d occurrences in %d documents: a document removed that was never added", g.ID, g.Freq, g.DF)
					return
				}
			}
		}
		b.numDocs--
		for i, f := range d.Freq {
			if f > 0 {
				b.freqSeen[i]--
			}
		}
	}
	if b.numDocs < 0 {
		b.err = fmt.Errorf("features: %d more documents removed than added", -b.numDocs)
		return
	}
	if b.words, b.err = dropEmpty(words, b.numDocs); b.err == nil {
		b.chars, b.err = dropEmpty(chars, b.numDocs)
	}
}

// Renumbering carries documents from one generation of a dictionary to the
// next: per family, the new number of each old number, notNumbered where
// the gram left. Gram ids keep their order, so the map is monotone and a
// renumbered list still ascends.
type Renumbering struct {
	words, chars []uint32
	moved        bool
}

// NewRenumbering maps the numbers of the old counter lists onto the new
// ones'.
func NewRenumbering(oldWords, oldChars, newWords, newChars []GramCount) Renumbering {
	words, wm := renumber(oldWords, newWords)
	chars, cm := renumber(oldChars, newChars)
	return Renumbering{words: words, chars: chars, moved: wm || cm}
}

// renumber merges two id-sorted lists into the old→new map, and reports
// whether any gram's number moved.
func renumber(old, cur []GramCount) ([]uint32, bool) {
	moved := len(old) != len(cur)
	out := make([]uint32, len(old))
	j := 0
	for i, g := range old {
		for j < len(cur) && cur[j].ID < g.ID {
			j++
		}
		if j < len(cur) && cur[j].ID == g.ID {
			out[i] = uint32(j)
		} else {
			out[i] = notNumbered
		}
		moved = moved || out[i] != uint32(i)
	}
	return out, moved
}

// Identity reports that no gram entered or left: every document keeps its
// numbers.
func (r Renumbering) Identity() bool { return !r.moved }

// Apply returns d under the new numbers in out, a document of its own whose
// lists take their storage from the front of arena, and the rest of arena,
// which must hold d's entries. A gram of d the new lists lack — counters
// that did not hold d — is an error.
func (r Renumbering) Apply(out *NumberedDoc, d *NumberedDoc, arena []NumEntry) ([]NumEntry, error) {
	*out = *d
	for _, fam := range [...]struct {
		dst *[]NumEntry
		num []uint32
	}{{&out.Words, r.words}, {&out.Chars, r.chars}} {
		src := *fam.dst
		es := arena[:len(src):len(src)]
		arena = arena[len(src):]
		for k, e := range src {
			n := fam.num[e.Num]
			if n == notNumbered {
				return arena, fmt.Errorf("features: a document holds gram number %d, which the counters no longer hold", e.Num)
			}
			es[k] = NumEntry{Num: n, Count: e.Count}
		}
		*fam.dst = es
	}
	return arena, nil
}

// Clone returns an independent copy of the builder: mutations of one never
// affect the other. The counter arrays are shared, not copied — no merge
// writes into its inputs. Used by incremental index maintenance to derive
// the next corpus state while the current one keeps serving.
func (b *VocabBuilder) Clone() *VocabBuilder {
	c := *b
	c.pending = slices.Clone(b.pending)
	return &c
}
