package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
)

// On-disk snapshot layout (all integers little-endian):
//
//	header:
//	  magic            8 bytes  "DLIXSNP1"
//	  format version   u32
//	  section count    u32
//	  index version    u64      snapshot generation, bumps on every Save
//	  last seq         u64      journal sequence already folded in
//	  corpus digest    32 bytes sha-256 of the canonical corpus JSONL
//	sections, back to back:
//	  name             u32 length + bytes
//	  payload length   u64
//	  payload digest   32 bytes sha-256 of the payload
//	  payload
//
// Every section is digest-verified on load before a single byte of it is
// decoded, so a flipped bit anywhere surfaces as a CorruptError naming
// the section — never a panic or a silently wrong index. Within a
// payload, decoding is bounds-checked (reader.fail) and every section
// must be consumed exactly, so a structurally mangled payload that
// happens to carry a fresh digest still fails loudly.

const (
	magic         = "DLIXSNP1"
	formatVersion = 1
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

// header is the decoded fixed header.
type header struct {
	IndexVersion uint64
	LastSeq      uint64
	CorpusDigest [digestLen]byte
}

// section is one named, digest-carrying payload.
type section struct {
	name    string
	payload []byte
}

// encodeSnapshot frames the sections behind the fixed header.
func encodeSnapshot(h header, sections []section) []byte {
	var buf bytes.Buffer
	buf.WriteString(magic)
	var tmp [8]byte
	binary.LittleEndian.PutUint32(tmp[:4], formatVersion)
	buf.Write(tmp[:4])
	binary.LittleEndian.PutUint32(tmp[:4], uint32(len(sections)))
	buf.Write(tmp[:4])
	binary.LittleEndian.PutUint64(tmp[:], h.IndexVersion)
	buf.Write(tmp[:])
	binary.LittleEndian.PutUint64(tmp[:], h.LastSeq)
	buf.Write(tmp[:])
	buf.Write(h.CorpusDigest[:])
	for _, s := range sections {
		binary.LittleEndian.PutUint32(tmp[:4], uint32(len(s.name)))
		buf.Write(tmp[:4])
		buf.WriteString(s.name)
		binary.LittleEndian.PutUint64(tmp[:], uint64(len(s.payload)))
		buf.Write(tmp[:])
		digest := sha256.Sum256(s.payload)
		buf.Write(digest[:])
		buf.Write(s.payload)
	}
	return buf.Bytes()
}

// headerLen is the size of the fixed header.
const headerLen = len(magic) + 4 + 4 + 8 + 8 + digestLen

// decodeHeader reads the fixed header off r, returning it and the section
// count. All errors are *CorruptError (Path unset).
func decodeHeader(r *reader) (header, int, error) {
	var h header
	if got := r.bytes(len(magic)); r.fail || string(got) != magic {
		return h, 0, corrupt("header", "bad magic (not a snapshot file)")
	}
	if v := r.u32(); r.fail || v != formatVersion {
		return h, 0, corrupt("header", "format version %d, want %d", v, formatVersion)
	}
	count := int(r.u32())
	h.IndexVersion = r.u64()
	h.LastSeq = r.u64()
	copy(h.CorpusDigest[:], r.bytes(digestLen))
	if r.fail {
		return h, 0, corrupt("header", "truncated header")
	}
	return h, count, nil
}

// decodeSnapshot verifies the header and every section digest, returning
// the sections in file order. All errors are *CorruptError (Path unset).
func decodeSnapshot(raw []byte) (header, []section, error) {
	r := &reader{b: raw}
	h, count, err := decodeHeader(r)
	if err != nil {
		return h, nil, err
	}
	const maxSections = 1 << 10
	if count < 0 || count > maxSections {
		return h, nil, corrupt("header", "implausible section count %d", count)
	}
	sections := make([]section, 0, count)
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
		sections = append(sections, section{name: name, payload: payload})
	}
	if r.off != len(raw) {
		return h, nil, corrupt("trailer", "%d trailing bytes after the last section", len(raw)-r.off)
	}
	return h, sections, nil
}

// writer is a little-endian append-only encoder.
type writer struct {
	b []byte
}

func (w *writer) u8(v uint8)    { w.b = append(w.b, v) }
func (w *writer) u32(v uint32)  { w.b = binary.LittleEndian.AppendUint32(w.b, v) }
func (w *writer) u64(v uint64)  { w.b = binary.LittleEndian.AppendUint64(w.b, v) }
func (w *writer) i64(v int64)   { w.u64(uint64(v)) }
func (w *writer) f32(v float32) { w.u32(math.Float32bits(v)) }
func (w *writer) f64(v float64) { w.u64(math.Float64bits(v)) }
func (w *writer) str(s string) {
	w.u32(uint32(len(s)))
	w.b = append(w.b, s...)
}
func (w *writer) blob(p []byte) {
	w.u32(uint32(len(p)))
	w.b = append(w.b, p...)
}

// reader is the bounds-checked little-endian decoder. After the first
// out-of-bounds read, fail latches and every value returned is zero; the
// caller checks fail (or done) once at the end of the payload.
type reader struct {
	b    []byte
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

func (r *reader) u8() uint8 {
	p := r.bytes(1)
	if p == nil {
		return 0
	}
	return p[0]
}

func (r *reader) u32() uint32 {
	p := r.bytes(4)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(p)
}

func (r *reader) u64() uint64 {
	p := r.bytes(8)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(p)
}

func (r *reader) i64() int64   { return int64(r.u64()) }
func (r *reader) f32() float32 { return math.Float32frombits(r.u32()) }
func (r *reader) f64() float64 { return math.Float64frombits(r.u64()) }
func (r *reader) str() string  { return string(r.bytes(int(r.u32()))) }
func (r *reader) blob() []byte { return r.bytes(int(r.u32())) }
func (r *reader) done() bool   { return !r.fail && r.off == len(r.b) }
func (r *reader) length() int  { return r.lengthBound(0) }

// lengthBound reads a u32 element count and sanity-bounds it against the
// remaining payload so a hostile count cannot drive a giant allocation.
func (r *reader) lengthBound(elemSize int) int {
	n := int(r.u32())
	// A hostile length must not drive a giant allocation: every element
	// costs at least elemSize (or 1) byte of remaining payload.
	per := elemSize
	if per < 1 {
		per = 1
	}
	if r.fail || n < 0 || n > (len(r.b)-r.off)/per+1 {
		r.fail = true
		return 0
	}
	return n
}
