package features

import (
	"fmt"
	"math"
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
// ascending gram lists — the form a snapshot stores document entries in —
// through the offset table a Vocabulary section uses, so numbering an entry
// is a slot lookup and a step or two, not a search.
type GramIndex struct {
	grams []GramCount
	skip  []uint32
	shift uint
}

// IndexGrams indexes grams, which must ascend by id.
func IndexGrams(grams []GramCount) GramIndex {
	x := GramIndex{grams: grams}
	x.skip, x.shift = skipTable(grams, func(g *GramCount) GramID { return g.ID })
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

// notNumbered stands for the number of a gram the dictionary does not hold.
const notNumbered = math.MaxUint32

// numberAll appends the number of every entry of es, an id-sorted gram list,
// to out: one forward walk, since the list and the indexed grams both ascend,
// that jumps to the slot of the next entry's id rather than stepping over
// grams the list does not hold. A gram the index lacks is notNumbered.
func (x GramIndex) numberAll(out []uint32, es []GramEntry) []uint32 {
	j := 0
	for _, e := range es {
		j = max(j, int(x.skip[e.ID>>x.shift]))
		for j < len(x.grams) && x.grams[j].ID < e.ID {
			j++
		}
		if j < len(x.grams) && x.grams[j].ID == e.ID {
			out = append(out, uint32(j))
		} else {
			out = append(out, notNumbered)
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

// NumberedDoc is a document beside its entries' dictionary numbers, aligned
// with its gram lists: Words[e] numbers Doc.WordGrams[e], Chars[e]
// Doc.CharGrams[e]. It is what stage 2 reads a document as.
type NumberedDoc struct {
	Doc          *SortedDoc
	Words, Chars []uint32
}

// Number numbers d in one fresh array of 4 bytes an entry.
func (x *Dictionary) Number(d *SortedDoc) *NumberedDoc {
	nums := make([]uint32, 0, len(d.WordGrams)+len(d.CharGrams))
	nd := &NumberedDoc{Doc: d, Words: x.words.numberAll(nums, d.WordGrams)}
	nd.Chars = x.chars.numberAll(nd.Words[len(nd.Words):], d.CharGrams)
	return nd
}

// NumberInto is Number into nd's own storage, which grows only when d has
// more entries than nd held before.
func (x *Dictionary) NumberInto(nd *NumberedDoc, d *SortedDoc) {
	nd.Doc = d
	nd.Words = x.words.numberAll(nd.Words[:0], d.WordGrams)
	nd.Chars = x.chars.numberAll(nd.Chars[:0], d.CharGrams)
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
