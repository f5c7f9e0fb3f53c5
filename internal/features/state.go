package features

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// This file is the persistence and incremental-maintenance surface of the
// vocabulary layer. A document is held in one of two forms: as extracted, a
// PackedDoc, its grams named by id; numbered by a Dictionary, a NumberedDoc,
// its grams named by their position in the corpus counters — what a matcher
// holds and a snapshot stores. A VocabBuilder's counters are already the
// value type the store serialises, so State hands the arrays out and
// NewVocabBuilderFromState adopts them, beside the configuration and the
// document count the caller holds anyway; and because counting is plain
// sums, documents can also be *subtracted* (Remove, RemoveNumbered), which
// is what lets a live index fold an updated alias in without rebuilding
// from scratch.

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

// BuilderState is a VocabBuilder's gram counters as value types. With the
// builder's Config and document count it is everything Build reads, so
// NewVocabBuilderFromState(cfg, n, b.State()) Builds the bit-identical
// Vocabulary. The gram lists are the builder's own arrays: read-only.
type BuilderState struct {
	Words []GramCount // ascending gram id
	Chars []GramCount // ascending gram id
}

// State snapshots the builder's counters.
func (b *VocabBuilder) State() (BuilderState, error) {
	if err := b.Settle(); err != nil {
		return BuilderState{}, err
	}
	return BuilderState{Words: b.words, Chars: b.chars}, nil
}

// NewVocabBuilderFromState reconstructs a builder of cfg over numDocs
// documents, adopting st's gram lists unchecked: they come from State, or
// were checked to be a count of numDocs documents.
func NewVocabBuilderFromState(cfg Config, numDocs int, st BuilderState) *VocabBuilder {
	return &VocabBuilder{cfg: cfg, words: st.Words, chars: st.Chars, numDocs: numDocs}
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

// numberAll appends an entry for every gram of f that the index holds, with
// its number in place of its id: one forward walk, since the family and the
// indexed grams both ascend, that jumps to the slot of the next entry's id
// rather than stepping over grams the family does not hold.
func (x GramIndex) numberAll(out []NumEntry, f family) []NumEntry {
	j := 0
	for k := range f.entries() {
		id, count := f.id(k), f.count()
		j = max(j, int(x.skip[id>>x.shift]))
		for j < len(x.grams) && x.grams[j].ID < id {
			j++
		}
		if j < len(x.grams) && x.grams[j].ID == id {
			out = append(out, NumEntry{Num: uint32(j), Count: count})
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

// NumEntry is one (dictionary number, count) pair of a numbered gram list:
// the form a packed list is decoded into, for as long as one reader needs
// it.
type NumEntry struct {
	Num   uint32
	Count int32
}

// NumberedDoc is a document with its grams as dictionary numbers, beside
// the totals and frequencies of the PackedDoc it was numbered from. Per gram
// family it holds one packed list: a uvarint entry count, then per entry, in
// ascending number, the uvarint step from the previous number (the first
// from -1, so never 0) and the uvarint count — the bytes a snapshot's docs
// section stores, about two an entry. Packed holds the word list and then,
// from CharsAt, the char list. A gram the dictionary does not hold is not in
// it; the totals still count it. It is the one form a known subject's
// document is held in — what a snapshot stores, what stage 1 vectorizes and
// what stage 2 reads — and the form a query is vectorized and rescored in.
// Every reader decodes the lists with Unpack into scratch of its own.
type NumberedDoc struct {
	Packed     []byte
	CharsAt    int
	WordTotal  int
	CharTotal  int
	Freq       [NumFreqFeatures]float64
	TotalChars int
}

// Lists returns the document's packed word and char lists.
func (d *NumberedDoc) Lists() (words, chars []byte) {
	return d.Packed[:d.CharsAt], d.Packed[d.CharsAt:]
}

// Entries returns how many entries the two lists hold.
func (d *NumberedDoc) Entries() int {
	words, chars := d.Lists()
	return PackedLen(words) + PackedLen(chars)
}

// unpack appends the word entries and then the char entries to dst, and
// returns it with where the char entries begin.
func (d *NumberedDoc) unpack(dst []NumEntry) ([]NumEntry, int) {
	words, chars := d.Lists()
	dst = Unpack(dst, words)
	nw := len(dst)
	return Unpack(dst, chars), nw
}

// pack sets d's lists to es's first nw entries (words) and the rest (chars),
// in d's own storage when it has room, else in one array of their exact
// size.
func (d *NumberedDoc) pack(es []NumEntry, nw int) {
	if size := packedSize(es[:nw]) + packedSize(es[nw:]); cap(d.Packed) < size {
		d.Packed = make([]byte, 0, size)
	}
	d.Packed = AppendPacked(d.Packed[:0], es[:nw])
	d.CharsAt = len(d.Packed)
	d.Packed = AppendPacked(d.Packed, es[nw:])
}

// AppendPacked appends es, strictly ascending by number, to dst as a packed
// list.
func AppendPacked(dst []byte, es []NumEntry) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(es)))
	prev := uint32(notNumbered) // -1: the first step is the number plus one
	for _, e := range es {
		dst = binary.AppendUvarint(binary.AppendUvarint(dst, uint64(e.Num-prev)), uint64(e.Count))
		prev = e.Num
	}
	return dst
}

// packedSize is len(AppendPacked(nil, es)).
func packedSize(es []NumEntry) int {
	size, prev := uvarintSize(uint64(len(es))), uint32(notNumbered)
	for _, e := range es {
		size += uvarintSize(uint64(e.Num-prev)) + uvarintSize(uint64(e.Count))
		prev = e.Num
	}
	return size
}

func uvarintSize(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// PackedLen returns how many entries packed list p holds.
func PackedLen(p []byte) int {
	n, _ := binary.Uvarint(p)
	return int(n)
}

// Unpack appends the entries of packed list p to dst. p must be well formed:
// encoded by AppendPacked, or accepted by CheckPacked.
func Unpack(dst []NumEntry, p []byte) []NumEntry {
	n, i := binary.Uvarint(p)
	dst = slices.Grow(dst, int(n))
	out := dst[len(dst) : len(dst)+int(n)]
	num := uint32(notNumbered)
	for k := range out {
		if i+1 < len(p) && p[i]|p[i+1] < 0x80 {
			num += uint32(p[i])
			out[k] = NumEntry{Num: num, Count: int32(p[i+1])}
			i += 2
			continue
		}
		step, count, next := entryAt(p, i)
		num += uint32(step)
		out[k] = NumEntry{Num: num, Count: int32(count)}
		i = next
	}
	return dst[:len(dst)+int(n)]
}

// entryAt decodes the entry at p[i:]: its step, its count and the offset
// after it, -1 when p ends inside it or a varint runs past 64 bits. Its
// callers take an entry of two one-byte varints, a packed list's bulk,
// without a call.
func entryAt(p []byte, i int) (step, count uint64, next int) {
	step, n := binary.Uvarint(p[i:])
	if n <= 0 {
		return 0, 0, -1
	}
	count, m := binary.Uvarint(p[i+n:])
	if m <= 0 {
		return 0, 0, -1
	}
	return step, count, i + n + m
}

// Number numbers d into a document of its own, its lists in one array of
// their exact size.
func (x *Dictionary) Number(d *PackedDoc) *NumberedDoc {
	nd := new(NumberedDoc)
	x.NumberInto(nd, d, new(Scratch))
	return nd
}

// NumberInto is Number into nd, whose storage is reused when it has room,
// with the numbered entries passing through s.
func (x *Dictionary) NumberInto(nd *NumberedDoc, d *PackedDoc, s *Scratch) {
	words, chars := d.families()
	s.entries = x.words.numberAll(s.entries[:0], words)
	nw := len(s.entries)
	s.entries = x.chars.numberAll(s.entries, chars)
	nd.pack(s.entries, nw)
	nd.WordTotal, nd.CharTotal, nd.Freq, nd.TotalChars = d.WordTotal, d.CharTotal, d.Freq, d.TotalChars
}

// CheckPacked checks the packed list at the front of p against a dictionary
// whose counters are counts, and returns the list's length in bytes. A list
// cut short, a varint past 64 bits, a zero step (a repeated number), a
// number past the dictionary or a count outside 1..2^31-1 is an error. With
// add, every entry is also added to its gram's counters, and a gram counted
// more than 2^31-1 times is an error.
func CheckPacked(p []byte, counts []GramCount, add bool) (int, error) {
	n, i := binary.Uvarint(p)
	if i <= 0 {
		return 0, fmt.Errorf("features: packed list without an entry count")
	}
	next := uint64(0) // the smallest number the next entry may carry
	for k := uint64(0); k < n; k++ {
		var step, count uint64
		if i+1 < len(p) && p[i]|p[i+1] < 0x80 {
			step, count, i = uint64(p[i]), uint64(p[i+1]), i+2
		} else if step, count, i = entryAt(p, i); i < 0 {
			return 0, fmt.Errorf("features: packed list cut short at entry %d of %d, or a varint past 64 bits", k, n)
		}
		switch {
		case step == 0:
			return 0, fmt.Errorf("features: entry %d of a packed list repeats a number (step 0)", k)
		case step > uint64(len(counts))-next:
			return 0, fmt.Errorf("features: entry %d of a packed list is past the %d-gram dictionary", k, len(counts))
		case count == 0 || count > math.MaxInt32:
			return 0, fmt.Errorf("features: entry %d of a packed list counts %d, outside 1..%d", k, count, math.MaxInt32)
		}
		next += step
		if g := &counts[next-1]; add {
			if count > uint64(math.MaxInt32-g.Freq) {
				return 0, fmt.Errorf("features: gram %d counted more than %d times", g.ID, math.MaxInt32)
			}
			g.Freq += int32(count)
			g.DF++
		}
	}
	return i, nil
}

// RemoveNumbered subtracts documents numbered by the builder's own counter
// arrays — the lists State returned, which no settle has replaced since.
// Each entry's number names its gram in the arrays, so a document leaves by
// id: it is packed again under its gram ids and joins the pending batch
// through Remove, and a Fold's removals and additions settle in one merge
// into one new array. A number past the arrays latches the builder's error,
// and a document the counters do not hold latches it when the batch
// settles.
func (b *VocabBuilder) RemoveNumbered(docs []*NumberedDoc) {
	if b.err != nil {
		return
	}
	// Every document takes its ids before any joins the batch: a batch that
	// fills up settles, and then the arrays the numbers name are gone.
	gone := make([]*PackedDoc, len(docs))
	var (
		es          []NumEntry
		ids, counts []uint64
	)
	for i, d := range docs {
		var nw int
		es, nw = d.unpack(es[:0])
		ids, counts = slices.Grow(ids[:0], len(es)), slices.Grow(counts[:0], len(es))
		for k, e := range es {
			grams := b.words
			if k >= nw {
				grams = b.chars
			}
			if int64(e.Num) >= int64(len(grams)) {
				b.err = fmt.Errorf("features: removed document names gram number %d of %d", e.Num, len(grams))
				return
			}
			ids, counts = append(ids, uint64(grams[e.Num].ID)), append(counts, uint64(e.Count))
		}
		gone[i] = new(PackedDoc)
		gone[i].pack(ids[:nw], counts[:nw], ids[nw:], counts[nw:])
	}
	for _, p := range gone {
		b.Remove(p)
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

// Apply sets out to d under the new numbers — decoded, mapped and packed
// again in one array of out's own — with the entries passing through s. A
// gram of d the new lists lack — counters that did not hold d — is an error.
func (r Renumbering) Apply(out, d *NumberedDoc, s *Scratch) error {
	var nw int
	s.entries, nw = d.unpack(s.entries[:0])
	for k := range s.entries {
		num := r.words
		if k >= nw {
			num = r.chars
		}
		n := num[s.entries[k].Num]
		if n == notNumbered {
			return fmt.Errorf("features: a document holds gram number %d, which the counters no longer hold", s.entries[k].Num)
		}
		s.entries[k].Num = n
	}
	*out = *d
	out.Packed = nil // d's array is d's
	out.pack(s.entries, nw)
	return nil
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
