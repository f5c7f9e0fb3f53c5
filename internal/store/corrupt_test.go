package store

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"

	"darklight/internal/attribution"
	"darklight/internal/prefilter"
)

// span is one section's payload within a snapshot.
type span struct{ off, len int }

func (s span) mid() int { return s.off + s.len/2 }

// snapshotLayout walks the framing and returns each section's payload span
// — the walker is deliberately independent of the reader type so a framing
// bug cannot hide itself.
func snapshotLayout(t testing.TB, raw []byte) map[string]span {
	t.Helper()
	off := len(magic)
	u32 := func() int {
		v := binary.LittleEndian.Uint32(raw[off:])
		off += 4
		return int(v)
	}
	u64 := func() int {
		v := binary.LittleEndian.Uint64(raw[off:])
		off += 8
		return int(v)
	}
	if v := u32(); v != formatVersion {
		t.Fatalf("layout walker: format version %d", v)
	}
	count := u32()
	off += 8 + 8 + digestLen // index version, last seq, corpus digest
	layout := make(map[string]span, count)
	for i := 0; i < count; i++ {
		nameLen := u32()
		name := string(raw[off : off+nameLen])
		off += nameLen
		payloadLen := u64()
		off += digestLen
		layout[name] = span{off, payloadLen}
		off += payloadLen
	}
	if off != len(raw) {
		t.Fatalf("layout walker consumed %d of %d bytes", off, len(raw))
	}
	return layout
}

// reseal returns raw with one section's payload replaced and its length and
// digest made to fit: damage a digest cannot catch, which the decoder has to.
func reseal(t testing.TB, raw []byte, name string, payload []byte) []byte {
	t.Helper()
	s := snapshotLayout(t, raw)[name]
	out := append([]byte(nil), raw[:s.off-digestLen-8]...)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(payload)))
	sum := sha256.Sum256(payload)
	out = append(out, sum[:]...)
	out = append(out, payload...)
	return append(out, raw[s.off+s.len:]...)
}

// memSink is an in-memory snapshot sink.
type memSink struct{ b []byte }

func (m *memSink) Write(p []byte) (int, error) {
	m.b = append(m.b, p...)
	return len(p), nil
}

func (m *memSink) WriteAt(p []byte, off int64) (int, error) {
	return copy(m.b[off:], p), nil
}

// encodeIndex is the snapshot of idx as Save would write it.
func encodeIndex(idx *Index) ([]byte, error) {
	var m memSink
	err := writeIndex(&m, idx)
	return m.b, err
}

func smallSnapshot(t testing.TB) []byte {
	rng := rand.New(rand.NewSource(8400))
	ds := testDataset(rng, "c", 10)
	opts, subjOpts := testBuildOptions()
	idx, err := BuildIndex(context.Background(), ds, opts, subjOpts)
	if err != nil {
		t.Fatal(err)
	}
	// Touch LSH: an operating point built or not, the bytes are the same.
	idx.Matcher.RankDetailed(&idx.Subjects[0], attribution.MatchOptions{K: 3, Mode: prefilter.ModeLSH})
	raw, err := encodeIndex(idx)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestCorruptionNamesEverySection: flip one byte in the middle of each
// section's payload; the load must fail with a *CorruptError naming
// exactly that section — never a panic, never a silently wrong index.
func TestCorruptionNamesEverySection(t *testing.T) {
	raw := smallSnapshot(t)
	layout := snapshotLayout(t, raw)
	// Spelled out, not sectionNames: the test pins the list.
	wantSections := []string{"options", "corpus", "subjects", "grams", "docs"}
	if len(layout) != len(wantSections) {
		t.Fatalf("snapshot has %d sections, want %d", len(layout), len(wantSections))
	}
	for _, name := range wantSections {
		sec, ok := layout[name]
		if !ok {
			t.Fatalf("section %q missing from snapshot", name)
		}
		mutated := append([]byte(nil), raw...)
		mutated[sec.mid()] ^= 0x40
		_, err := decodeIndex(mutated)
		var ce *CorruptError
		if !errors.As(err, &ce) {
			t.Errorf("section %q: flipped byte returned %v, want *CorruptError", name, err)
			continue
		}
		if ce.Section != name {
			t.Errorf("section %q: error names section %q: %v", name, ce.Section, ce)
		}
	}
}

// sectionPayload returns a copy of one section's payload.
func sectionPayload(t testing.TB, raw []byte, name string) []byte {
	t.Helper()
	s := snapshotLayout(t, raw)[name]
	return append([]byte(nil), raw[s.off:s.off+s.len]...)
}

// spliceUvarint replaces the uvarint at off with the encoding of v.
func spliceUvarint(p []byte, off int, v uint64) []byte {
	_, n := binary.Uvarint(p[off:])
	out := binary.AppendUvarint(append([]byte(nil), p[:off]...), v)
	return append(out, p[off+n:]...)
}

// Offsets into the docs payload: document count (u32) and entry count
// (u64), then document 0's word-entry count, first step and first count.
const docsFirstList = 4 + 8

func docsFirstStep(p []byte) int {
	_, n := binary.Uvarint(p[docsFirstList:])
	return docsFirstList + n
}

func docsFirstCount(p []byte) int {
	_, n := binary.Uvarint(p[docsFirstStep(p):])
	return docsFirstStep(p) + n
}

// structuralDamage lists what a fresh digest cannot hide: each entry
// rewrites one section's payload into something well framed and wrong.
var structuralDamage = []struct {
	name, section string
	mutate        func(t testing.TB, payload []byte) []byte
}{
	{"dictionary not ascending", secGrams, func(_ testing.TB, p []byte) []byte {
		first, second := append([]byte(nil), p[4:12]...), append([]byte(nil), p[12:20]...)
		copy(p[4:], second)
		copy(p[12:], first)
		return p
	}},
	{"dictionary repeats a gram", secGrams, func(_ testing.TB, p []byte) []byte {
		copy(p[12:20], p[4:12])
		return p
	}},
	{"dictionary gram in no document", secGrams, func(_ testing.TB, p []byte) []byte {
		// One more word gram past the last: no number shifts, nothing holds it.
		n := int(binary.LittleEndian.Uint32(p))
		end := 4 + 8*n
		out := binary.LittleEndian.AppendUint32(nil, uint32(n+1))
		out = append(out, p[4:end]...)
		out = binary.LittleEndian.AppendUint64(out, binary.LittleEndian.Uint64(p[end-8:])+1)
		return append(out, p[end:]...)
	}},
	{"document gram number outside the dictionary", secDocs, func(_ testing.TB, p []byte) []byte {
		return spliceUvarint(p, docsFirstStep(p), 1<<40)
	}},
	{"document repeats a gram (zero step)", secDocs, func(_ testing.TB, p []byte) []byte {
		return spliceUvarint(p, docsFirstStep(p), 0)
	}},
	{"document gram count 0", secDocs, func(_ testing.TB, p []byte) []byte {
		return spliceUvarint(p, docsFirstCount(p), 0)
	}},
	{"document gram count past int32", secDocs, func(_ testing.TB, p []byte) []byte {
		return spliceUvarint(p, docsFirstCount(p), 1<<31)
	}},
	{"document list longer than the section declares", secDocs, func(_ testing.TB, p []byte) []byte {
		return spliceUvarint(p, docsFirstList, 1<<40)
	}},
	{"payload ends inside a varint", secDocs, func(testing.TB, []byte) []byte {
		// One document, one entry, and the entry's step never finishes.
		return []byte{1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0x80}
	}},
	{"varint past 64 bits", secDocs, func(_ testing.TB, p []byte) []byte {
		off := docsFirstStep(p)
		out := append(append([]byte(nil), p[:off]...), bytes.Repeat([]byte{0xFF}, 10)...)
		return append(out, p[off:]...)
	}},
	{"gram counted past int32 over the corpus", secDocs, func(t testing.TB, p []byte) []byte {
		// Every word gram of document 0 counted 2^31-1 times there: each count
		// fits, and the first gram another document shares does not.
		n, w := binary.Uvarint(p[docsFirstList:])
		off := docsFirstList + w
		out := append([]byte(nil), p[:off]...)
		for i := uint64(0); i < n; i++ {
			step, sw := binary.Uvarint(p[off:])
			_, cw := binary.Uvarint(p[off+sw:])
			out = binary.AppendUvarint(binary.AppendUvarint(out, step), math.MaxInt32)
			off += sw + cw
		}
		if n == 0 {
			t.Fatal("document 0 of the test snapshot has no word grams")
		}
		return append(out, p[off:]...)
	}},
	{"more entries declared than the documents hold", secDocs, func(_ testing.TB, p []byte) []byte {
		binary.LittleEndian.PutUint64(p[4:], binary.LittleEndian.Uint64(p[4:])+1)
		return p
	}},
	{"document count past the payload", secDocs, func(_ testing.TB, p []byte) []byte {
		binary.LittleEndian.PutUint32(p, 1<<30)
		return p
	}},
	{"bytes after the last document", secDocs, func(_ testing.TB, p []byte) []byte {
		return append(p, 0)
	}},
	{"dictionary longer than its section", secGrams, func(_ testing.TB, p []byte) []byte {
		binary.LittleEndian.PutUint32(p, 1<<30)
		return p
	}},
}

// TestStructuralDamageNamesItsSection: a payload that is well framed, carries
// a fresh digest and is wrong inside must fail as a CorruptError naming the
// section it is in — never a panic, never an index.
func TestStructuralDamageNamesItsSection(t *testing.T) {
	raw := smallSnapshot(t)
	for _, c := range structuralDamage {
		mutated := reseal(t, raw, c.section, c.mutate(t, sectionPayload(t, raw, c.section)))
		_, err := decodeIndex(mutated)
		var ce *CorruptError
		if !errors.As(err, &ce) {
			t.Errorf("%s: got %v, want *CorruptError", c.name, mutatedErr(err))
			continue
		}
		if ce.Section != c.section || ce.Reason == "" {
			t.Errorf("%s: error names section %q (reason %q), want %q", c.name, ce.Section, ce.Reason, c.section)
		}
		t.Logf("%s: %v", c.name, ce)
	}
	// reseal itself is sound: the untouched payload under a fresh digest loads.
	if _, err := decodeIndex(reseal(t, raw, secDocs, sectionPayload(t, raw, secDocs))); err != nil {
		t.Fatalf("resealed pristine snapshot no longer decodes: %v", err)
	}
}

// TestCorruptionHeaderAndTruncation covers the non-payload failure modes:
// a damaged magic/header, truncation at every region boundary, and
// trailing garbage. All must produce structured errors.
func TestCorruptionHeaderAndTruncation(t *testing.T) {
	raw := smallSnapshot(t)

	mutated := append([]byte(nil), raw...)
	mutated[0] ^= 0x40 // magic
	var ce *CorruptError
	if _, err := decodeIndex(mutated); !errors.As(err, &ce) || ce.Section != "header" {
		t.Errorf("bad magic: got %v, want header CorruptError", mutatedErr(err))
	}
	// Another format version is not damage: its own error, with both numbers.
	mutated = append([]byte(nil), raw...)
	mutated[len(magic)] = formatVersion - 1
	var ve *VersionError
	if _, err := decodeIndex(mutated); !errors.As(err, &ve) || ve.Got != formatVersion-1 || ve.Want != formatVersion || errors.As(err, &ce) {
		t.Errorf("other version: got %v, want a VersionError naming %d and %d", mutatedErr(err), formatVersion-1, formatVersion)
	}

	for _, cut := range []int{0, 4, len(magic) + 9, len(raw) / 3, len(raw) / 2, len(raw) - 1} {
		if _, err := decodeIndex(raw[:cut]); !errors.As(err, &ce) {
			t.Errorf("truncation at %d: got %v, want *CorruptError", cut, err)
		}
	}

	if _, err := decodeIndex(append(append([]byte(nil), raw...), 0xAB)); !errors.As(err, &ce) || ce.Section != "trailer" {
		t.Errorf("trailing byte: got %v, want trailer CorruptError", mutatedErr(err))
	}

	// And the pristine bytes still decode — the mutations above worked on
	// copies.
	if _, err := decodeIndex(raw); err != nil {
		t.Fatalf("pristine snapshot no longer decodes: %v", err)
	}
}

func mutatedErr(err error) error {
	if err == nil {
		return errors.New("<nil: snapshot accepted>")
	}
	return err
}

// TestLoadFillsPath: corruption surfaced through Store.Load carries the
// snapshot path for the operator.
func TestLoadFillsPath(t *testing.T) {
	raw := smallSnapshot(t)
	layout := snapshotLayout(t, raw)
	raw[layout[secDocs].mid()] ^= 0x01
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(st.SnapshotPath(), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = st.Load()
	var ce *CorruptError
	if !errors.As(err, &ce) || ce.Path != st.SnapshotPath() || ce.Section != secDocs {
		t.Fatalf("Load on corrupt snapshot: %v, want docs CorruptError with path", err)
	}
}
