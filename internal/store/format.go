package store

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"io"
	"math"
)

// On-disk snapshot layout, format 5 (all fixed-width integers
// little-endian, "uvarint" the encoding/binary one):
//
//	header:
//	  magic            8 bytes  "DLIXSNP1"
//	  format version   u32
//	  section count    u32
//	  index version    u64      snapshot generation, bumps on every Save
//	  last seq         u64      journal sequence already folded in
//	sections, back to back:
//	  name             u32 length + bytes
//	  payload length   u64
//	  payload digest   32 bytes sha-256 of the payload
//	  payload
//
// The header fields up to last seq sit at these offsets in every format
// version (the magic names the layout), so Open can read the journal
// position off a snapshot whose sections it cannot decode. What the four
// sections hold — options, corpus, grams, docs — is in snapshot.go.
//
// Every section is digest-verified on load before a single byte of it is
// decoded, so a flipped bit anywhere surfaces as a CorruptError naming
// the section — never a panic or a silently wrong index. Within a
// payload, decoding is bounds-checked (reader.fail) and every section
// must be consumed exactly, so a structurally mangled payload that
// happens to carry a fresh digest still fails loudly.

const (
	magic         = "DLIXSNP1"
	formatVersion = 5
	digestLen     = sha256.Size
)

// CorruptError reports a structurally invalid or digest-mismatched
// snapshot or journal. Section names the part that failed verification.
type CorruptError struct {
	Path    string
	Section string
	Reason  string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("store: %s: section %q: %s", e.Path, e.Section, e.Reason)
}

// corrupt builds a CorruptError; path is filled in by the loader.
func corrupt(section, format string, args ...any) *CorruptError {
	return &CorruptError{Section: section, Reason: fmt.Sprintf(format, args...)}
}

// VersionError reports an intact snapshot of another format version: not
// damage, but this build has one reader, so the way forward is a rebuild.
type VersionError struct {
	Path      string
	Got, Want uint32
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("store: %s: snapshot format version %d, this build reads and writes version %d", e.Path, e.Got, e.Want)
}

// header is the decoded fixed header.
type header struct {
	IndexVersion uint64
	LastSeq      uint64
}

// headerLen is the size of the fixed header.
const headerLen = len(magic) + 4 + 4 + 8 + 8

// decodeHeader reads the fixed header off r, returning it and the section
// count. Errors are *CorruptError (Path unset) or, with the header fully
// read and returned, *VersionError.
func decodeHeader(r *reader) (header, int, error) {
	var h header
	if got := r.bytes(len(magic)); r.fail || string(got) != magic {
		return h, 0, corrupt("header", "bad magic (not a snapshot file)")
	}
	version := r.u32()
	count := int(r.u32())
	h.IndexVersion = r.u64()
	h.LastSeq = r.u64()
	if r.fail {
		return h, 0, corrupt("header", "truncated header")
	}
	if version != formatVersion {
		return h, 0, &VersionError{Got: version, Want: formatVersion}
	}
	return h, count, nil
}

// decodeSnapshot verifies the header and every section digest, returning
// the payloads by section name. Errors are decodeHeader's.
func decodeSnapshot(raw []byte) (header, map[string][]byte, error) {
	r := &reader{b: raw}
	h, count, err := decodeHeader(r)
	if err != nil {
		return h, nil, err
	}
	const maxSections = 1 << 10
	if count < 0 || count > maxSections {
		return h, nil, corrupt("header", "implausible section count %d", count)
	}
	sections := make(map[string][]byte, count)
	for i := 0; i < count; i++ {
		nameLen := int(r.u32())
		if r.fail || nameLen > 256 {
			return h, nil, corrupt("header", "section %d: bad name length", i)
		}
		name := string(r.bytes(nameLen))
		payloadLen := r.u64()
		if r.fail || payloadLen > uint64(len(raw)) {
			return h, nil, corrupt(name, "implausible payload length %d", payloadLen)
		}
		var want [digestLen]byte
		copy(want[:], r.bytes(digestLen))
		payload := r.bytes(int(payloadLen))
		if r.fail {
			return h, nil, corrupt(name, "truncated section")
		}
		if got := sha256.Sum256(payload); got != want {
			return h, nil, corrupt(name, "digest mismatch (corrupt payload)")
		}
		sections[name] = payload
	}
	if r.off != len(raw) {
		return h, nil, corrupt("trailer", "%d trailing bytes after the last section", len(raw)-r.off)
	}
	return h, sections, nil
}

// sink is what a snapshot is written to: sequential writes, plus one
// positioned write per section for the length and digest that precede its
// payload and are known only once it has gone by.
type sink interface {
	io.Writer
	io.WriterAt
}

// flushAt is how many pending bytes send the writer to its sink: a save
// holds this much of the file in memory, never a section or the file.
const flushAt = 64 << 10

// writer is the little-endian streaming encoder. Bytes collect in b and
// leave for the sink, through the digest begin resets for each section,
// flushAt at a time; the first failed write latches in err.
type writer struct {
	out     sink
	b       []byte
	pos     int64 // file offset of b[0]
	sum     hash.Hash
	patchAt int64 // where the open section's length and digest go
	err     error
}

func newWriter(out sink) *writer {
	return &writer{out: out, b: make([]byte, 0, flushAt+flushAt/8), sum: sha256.New()}
}

func (w *writer) flush() {
	if w.err == nil {
		_, w.err = w.sum.Write(w.b)
	}
	if w.err == nil {
		_, w.err = w.out.Write(w.b)
	}
	w.pos += int64(len(w.b))
	w.b = w.b[:0]
}

// room returns b for appending, flushed first when it has filled up.
func (w *writer) room() []byte {
	if len(w.b) >= flushAt {
		w.flush()
	}
	return w.b
}

func (w *writer) u32(v uint32)     { w.b = binary.LittleEndian.AppendUint32(w.room(), v) }
func (w *writer) u64(v uint64)     { w.b = binary.LittleEndian.AppendUint64(w.room(), v) }
func (w *writer) uvarint(v uint64) { w.b = binary.AppendUvarint(w.room(), v) }
func (w *writer) f64(v float64)    { w.u64(math.Float64bits(v)) }
func (w *writer) raw(p []byte)     { w.b = append(w.room(), p...) }
func (w *writer) str(s string)     { w.u32(uint32(len(s))); w.b = append(w.b, s...) }
func (w *writer) blob(p []byte)    { w.u32(uint32(len(p))); w.b = append(w.b, p...) }
func (w *writer) header(h header, sections int) {
	w.raw([]byte(magic))
	w.u32(formatVersion)
	w.u32(uint32(sections))
	w.u64(h.IndexVersion)
	w.u64(h.LastSeq)
}

// begin frames a section: its name and room for the length and digest,
// then everything written until end is its payload.
func (w *writer) begin(name string) {
	w.str(name)
	w.raw(make([]byte, 8+digestLen))
	w.flush()
	w.patchAt = w.pos - (8 + digestLen)
	w.sum.Reset()
}

// end closes the open section, writing its length and digest into the room
// begin left.
func (w *writer) end() {
	w.flush()
	frame := binary.LittleEndian.AppendUint64(make([]byte, 0, 8+digestLen), uint64(w.pos-w.patchAt-(8+digestLen)))
	frame = w.sum.Sum(frame)
	if w.err == nil {
		_, w.err = w.out.WriteAt(frame, w.patchAt)
	}
}

// reader is the bounds-checked little-endian decoder. After the first
// out-of-bounds read, fail latches and every value returned is zero; the
// caller checks fail (or done) once at the end of the payload. text, when
// set, is string(b): str returns substrings of it, one allocation for all.
type reader struct {
	b    []byte
	text string
	off  int
	fail bool
}

func (r *reader) bytes(n int) []byte {
	if r.fail || n < 0 || r.off+n > len(r.b) {
		r.fail = true
		return nil
	}
	out := r.b[r.off : r.off+n]
	r.off += n
	return out
}

// fixed is bytes for the fixed-width integers: zeros once fail has latched.
func (r *reader) fixed(n int) []byte {
	if p := r.bytes(n); p != nil {
		return p
	}
	return make([]byte, n)
}

func (r *reader) u32() uint32 { return binary.LittleEndian.Uint32(r.fixed(4)) }
func (r *reader) u64() uint64 { return binary.LittleEndian.Uint64(r.fixed(8)) }

// uvarint fails on a varint the payload ends inside of, or one past 64
// bits.
func (r *reader) uvarint() uint64 {
	if r.fail {
		return 0
	}
	// Dictionary steps and gram counts, a snapshot's bulk, fit one byte.
	if r.off < len(r.b) && r.b[r.off] < 0x80 {
		r.off++
		return uint64(r.b[r.off-1])
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail = true
		return 0
	}
	r.off += n
	return v
}

func (r *reader) f64() float64 { return math.Float64frombits(r.u64()) }
func (r *reader) blob() []byte { return r.bytes(int(r.u32())) }
func (r *reader) done() bool   { return !r.fail && r.off == len(r.b) }

func (r *reader) str() string {
	p := r.bytes(int(r.u32()))
	if r.text != "" && p != nil {
		return r.text[r.off-len(p) : r.off]
	}
	return string(p)
}

// lengthBound reads a u32 element count and sanity-bounds it against the
// remaining payload so a hostile count cannot drive a giant allocation:
// every element costs at least elemSize bytes of remaining payload.
func (r *reader) lengthBound(elemSize int) int {
	n := int(r.u32())
	if r.fail || n < 0 || n > (len(r.b)-r.off)/elemSize+1 {
		r.fail = true
		return 0
	}
	return n
}
