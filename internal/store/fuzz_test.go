package store

import (
	"testing"
)

// FuzzLoadSnapshot drives the full verify-and-decode path over mutated
// headers and sections. The invariant is the corruption contract: any
// input either decodes to a usable index or returns an error — never a
// panic, never a runaway allocation.
func FuzzLoadSnapshot(f *testing.F) {
	raw := smallSnapshot(f)
	layout := snapshotLayout(f, raw)
	// Seed with the valid snapshot plus structured damage: truncations at
	// interesting boundaries and a flipped byte inside each section.
	f.Add(raw)
	f.Add(raw[:len(magic)])
	f.Add(raw[:len(magic)+8])
	f.Add(raw[:len(raw)/2])
	f.Add(raw[:len(raw)-1])
	f.Add([]byte{})
	f.Add([]byte("DLIXSNP1 not really a snapshot"))
	for _, off := range []int{len(magic), len(magic) + 4, len(magic) + 8, len(magic) + 16} {
		m := append([]byte(nil), raw...)
		m[off] ^= 0xFF
		f.Add(m)
	}
	for _, sec := range layout {
		m := append([]byte(nil), raw...)
		m[sec.mid()] ^= 0x40
		f.Add(m)
	}
	// Structural damage under fresh digests: the decoder's own checks.
	for _, c := range structuralDamage {
		f.Add(reseal(f, raw, c.section, c.mutate(f, sectionPayload(f, raw, c.section))))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		idx, err := decodeIndex(data)
		if err == nil && (idx == nil || idx.Matcher == nil || idx.Dataset == nil) {
			t.Fatal("decodeIndex returned neither an index nor an error")
		}
	})
}
