package features

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"unsafe"
)

// entriesOf decodes d's two lists.
func entriesOf(d *NumberedDoc) (words, chars []NumEntry) {
	w, c := d.Lists()
	return Unpack(nil, w), Unpack(nil, c)
}

// withEntries is d with its lists packed from words and chars.
func withEntries(d *NumberedDoc, words, chars []NumEntry) *NumberedDoc {
	out := *d
	out.Packed = AppendPacked(nil, words)
	out.CharsAt = len(out.Packed)
	out.Packed = AppendPacked(out.Packed, chars)
	return &out
}

// gramsOfSize is the counters of a dictionary of n grams.
func gramsOfSize(n int) []GramCount {
	grams := make([]GramCount, n)
	for i := range grams {
		grams[i] = GramCount{ID: GramID(i)*7 + 1, Freq: 1, DF: 1}
	}
	return grams
}

// TestPackedListRoundTrip: a list packs to the bytes the snapshot's docs
// section has always stored — a uvarint entry count, then per entry the
// uvarint step from the previous number (the first from -1) and the uvarint
// count — at the size packedSize predicts, CheckPacked accepts all of it,
// and Unpack and PackedLen read it back, at the varint widths' edges, at the
// largest count, and for empty and one-entry lists.
func TestPackedListRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		es   []NumEntry
		want []byte // nil: not spelled out
	}{
		{"empty", nil, []byte{0}},
		{"one entry", []NumEntry{{0, 1}}, []byte{1, 1, 1}},
		{"steps 127 and 128, counts 255 and 256", []NumEntry{{126, 255}, {254, 256}}, []byte{2, 0x7F, 0xFF, 0x01, 0x80, 0x01, 0x80, 0x02}},
		{"steps 16383 and 16384", []NumEntry{{16382, 1}, {32766, 2}}, []byte{2, 0xFF, 0x7F, 1, 0x80, 0x80, 0x01, 2}},
		{"count 2^31-1", []NumEntry{{5, math.MaxInt32}}, []byte{1, 6, 0xFF, 0xFF, 0xFF, 0xFF, 0x07}},
		{"dense run", []NumEntry{{0, 3}, {1, 1}, {2, 127}, {3, 128}}, nil},
	}
	grams := gramsOfSize(1 << 15)
	for _, c := range cases {
		p := AppendPacked(nil, c.es)
		if c.want != nil && !bytes.Equal(p, c.want) {
			t.Errorf("%s: packed % x, want % x", c.name, p, c.want)
		}
		if size := packedSize(c.es); size != len(p) {
			t.Errorf("%s: packedSize %d, packed %d bytes", c.name, size, len(p))
		}
		if n, err := CheckPacked(p, grams, false); err != nil || n != len(p) {
			t.Errorf("%s: CheckPacked took %d of %d bytes (%v)", c.name, n, len(p), err)
		}
		if n := PackedLen(p); n != len(c.es) {
			t.Errorf("%s: PackedLen %d, want %d", c.name, n, len(c.es))
		}
		if got := Unpack([]NumEntry{{9, 9}}, p); !slices.Equal(got[1:], c.es) || got[0] != (NumEntry{9, 9}) {
			t.Errorf("%s: unpacked %v, want %v after the entry already there", c.name, got, c.es)
		}
		for _, d := range []*NumberedDoc{withEntries(&NumberedDoc{}, c.es, nil), withEntries(&NumberedDoc{}, nil, c.es), withEntries(&NumberedDoc{}, c.es, c.es)} {
			var s Scratch
			var packed NumberedDoc
			es, nw := d.unpack(nil)
			packed.pack(es, nw)
			if !bytes.Equal(packed.Packed, d.Packed) || packed.CharsAt != d.CharsAt {
				t.Errorf("%s: pack after unpack gives other bytes", c.name)
			}
			if err := (Renumbering{words: identity(1 << 15), chars: identity(1 << 15)}).Apply(&packed, d, &s); err != nil || !bytes.Equal(packed.Packed, d.Packed) {
				t.Errorf("%s: the identity renumbering gives other bytes (%v)", c.name, err)
			}
		}
	}
}

// TestPackedDocRoundTrip: a document packs to, per family — the words',
// then the chars' — its ids as 8-byte little-endian words followed by its
// counts as uvarints, in an array of exactly that size, with each family's
// total the sum of its counts — at the ids' extremes, at the counts' varint
// edges and largest value, and for empty lists — and reading the families
// back gives every entry. Packing keeps nothing of the lists it packed.
func TestPackedDocRoundTrip(t *testing.T) {
	ones := bytes.Repeat([]byte{0xFF}, 8)
	id := func(v uint64) []byte { return binary.LittleEndian.AppendUint64(nil, v) }
	cases := []struct {
		name         string
		words, chars []gramEntry
		want         []byte
	}{
		{"empty lists", nil, nil, []byte{}},
		{"ids 0 and 2^64-1, counts 1 and 2^31-1", []gramEntry{{0, 1}, {math.MaxUint64, math.MaxInt32}}, nil,
			slices.Concat(id(0), ones, []byte{1, 0xFF, 0xFF, 0xFF, 0xFF, 0x07})},
		{"counts 127 and 128, chars only", nil, []gramEntry{{5, 127}, {6, 128}},
			slices.Concat(id(5), id(6), []byte{0x7F, 0x80, 0x01})},
		{"both lists", []gramEntry{{1, 3}, {2, 128}}, []gramEntry{{0, 1}, {math.MaxUint64, 127}},
			slices.Concat(id(1), id(2), []byte{3, 0x80, 0x01}, id(0), ones, []byte{1, 0x7F})},
	}
	for _, c := range cases {
		var lists [4][]uint64 // word ids, word counts, char ids, char counts
		totals := [2]int{}
		for f, es := range [][]gramEntry{c.words, c.chars} {
			for _, e := range es {
				lists[2*f], lists[2*f+1] = append(lists[2*f], uint64(e.ID)), append(lists[2*f+1], uint64(e.Count))
				totals[f] += int(e.Count)
			}
		}
		p := new(PackedDoc)
		p.pack(lists[0], lists[1], lists[2], lists[3])
		if !bytes.Equal(p.data, c.want) || cap(p.data) != len(p.data) {
			t.Errorf("%s: packed % x (capacity %d), want % x", c.name, p.data, cap(p.data), c.want)
		}
		if n := p.Entries(); n != len(c.words)+len(c.chars) {
			t.Errorf("%s: %d entries, want %d", c.name, n, len(c.words)+len(c.chars))
		}
		if p.WordTotal != totals[0] || p.CharTotal != totals[1] {
			t.Errorf("%s: totals %d and %d, want %d and %d", c.name, p.WordTotal, p.CharTotal, totals[0], totals[1])
		}
		for _, l := range lists {
			for k := range l {
				l[k]++
			}
		}
		if words, chars := gramsOf(p); !slices.Equal(words, c.words) || !slices.Equal(chars, c.chars) {
			t.Errorf("%s: read back words %v chars %v, want %v and %v", c.name, words, chars, c.words, c.chars)
		}
	}
}

// TestPackedDocSize: on a fixed text, Extract's document holds at most 9.5
// bytes an entry, its header included — 8 for the id and, for nearly every
// count, one.
func TestPackedDocSize(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	words := strings.Fields("the quick brown fox jumps over a lazy dog while shipping was fast and every vendor sent the package")
	var b strings.Builder
	for range 4000 {
		b.WriteString(words[rng.Intn(len(words))])
		b.WriteByte(' ')
	}
	p := Extract(b.String(), ReductionConfig())
	perEntry := float64(int(unsafe.Sizeof(*p))+cap(p.data)) / float64(p.Entries())
	t.Logf("%d entries, %.2f B an entry", p.Entries(), perEntry)
	if perEntry > 9.5 {
		t.Errorf("extracted document holds %.2f B an entry, ceiling 9.5", perEntry)
	}
}

func identity(n int) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = uint32(i)
	}
	return out
}

// TestCheckRefusesDamagedLists: every list CheckPacked accepts whole
// decodes safely, so it must refuse each way a list can be damaged — with an
// error, or, for bytes after the last entry, by a length short of the
// list's. It finds a list's end from the list alone: a sound list followed
// by any bytes, as a word list is by its char list, is accepted at its own
// length.
func TestCheckRefusesDamagedLists(t *testing.T) {
	grams := gramsOfSize(300)
	good := AppendPacked(nil, []NumEntry{{3, 2}, {299, 1}})
	cases := map[string][]byte{
		"no entry count":             {},
		"zero step":                  {2, 4, 2, 0, 1},
		"number past the dictionary": {1, 0xAD, 0x02, 1}, // step 301: number 300
		"step past 32 bits":          {1, 0x80, 0x80, 0x80, 0x80, 0x10, 1},
		"count 0":                    {1, 1, 0},
		"count past int32":           {1, 1, 0x80, 0x80, 0x80, 0x80, 0x08},
		"varint cut short":           {1, 1, 0x80},
		"varint past 64 bits":        append([]byte{1}, bytes.Repeat([]byte{0xFF}, 10)...),
		"more entries than it holds": append([]byte{3}, good[1:]...),
		"bytes after the last entry": append(slices.Clone(good), 1),
	}
	for name, p := range cases {
		if n, err := CheckPacked(p, grams, false); err == nil && n == len(p) {
			t.Errorf("%s: accepted", name)
		}
		if n, err := CheckPacked(append(slices.Clone(good), p...), grams, false); err != nil || n != len(good) {
			t.Errorf("%s after a sound list: took %d bytes of the sound list's %d (%v)", name, n, len(good), err)
		}
	}
	if n, err := CheckPacked(good, grams, false); err != nil || n != len(good) {
		t.Fatalf("the sound list: took %d of %d bytes (%v)", n, len(good), err)
	}
}
