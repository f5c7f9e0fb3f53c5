package store

import (
	"context"
	"testing"

	"darklight/internal/attribution"
)

// FuzzLoadSnapshot drives the full verify-and-decode path over mutated
// headers and sections. The invariant is the corruption contract: any
// input either decodes to a usable index or returns an error — never a
// panic, never a runaway allocation. A usable index holds its documents as
// the packed lists Load accepted, which every later reader trusts, so each
// one then answers a Prepare and a Match and folds a small batch: a list
// Load let through that a later decoder misreads panics here.
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
		if err != nil {
			return
		}
		if idx == nil || idx.Matcher == nil || idx.Dataset == nil {
			t.Fatal("decodeIndex returned neither an index nor an error")
		}
		batch := []attribution.Subject{{Name: "fuzz-new-alias", Text: "a new alias folded in with words of its own"}}
		if len(idx.Subjects) > 0 {
			s := idx.Subjects[0]
			idx.Matcher.Prepare(&s).Match(attribution.MatchOptions{})
			s.Text += " and a few more words"
			batch = append(batch, s)
		}
		if _, err := idx.Matcher.Fold(context.Background(), batch); err != nil {
			t.Logf("fold: %v", err)
		}
	})
}
