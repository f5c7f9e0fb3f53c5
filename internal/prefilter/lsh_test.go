package prefilter

import (
	"math/rand"
	"testing"
)

func TestParseModeRoundTrip(t *testing.T) {
	for _, m := range []Mode{ModeDefault, ModeExact, ModePruned, ModeLSH} {
		s := m.String()
		if m == ModeDefault {
			s = "" // the wire spelling of "unset"
		}
		got, err := ParseMode(s)
		if err != nil {
			t.Fatalf("ParseMode(%q): %v", s, err)
		}
		if got != m {
			t.Errorf("ParseMode(%q) = %v, want %v", s, got, m)
		}
	}
	if _, err := ParseMode("fancy"); err == nil {
		t.Error("ParseMode accepted an unknown mode")
	}
}

func TestParamsWithDefaults(t *testing.T) {
	if p := (PrunedParams{}).WithDefaults(); p.Slack != DefaultSlack || p.TailShare != DefaultTailShare {
		t.Errorf("pruned defaults = %+v", p)
	}
	if p := (LSHParams{}).WithDefaults(); p.Bands != DefaultBands || p.Rows != DefaultRows || p.Seed != DefaultSeed {
		t.Errorf("lsh defaults = %+v", p)
	}
	// Explicit settings survive.
	if p := (PrunedParams{TailShare: -1}).WithDefaults(); p.TailShare != -1 || p.Slack != DefaultSlack {
		t.Errorf("explicit pruned params overwritten: %+v", p)
	}
	if p := (LSHParams{Bands: 4, Rows: 8}).WithDefaults(); p.Bands != 4 || p.Rows != 8 || p.Seed != DefaultSeed {
		t.Errorf("explicit lsh params overwritten: %+v", p)
	}
}

// randomSet draws a sorted set of feature ids from [0, universe).
func randomSet(rng *rand.Rand, universe, size int) []uint32 {
	seen := make(map[uint32]bool, size)
	out := make([]uint32, 0, size)
	for len(out) < size {
		x := uint32(rng.Intn(universe))
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	return out
}

// mutate flips roughly frac of the set's members to fresh ids.
func mutate(rng *rand.Rand, set []uint32, universe int, frac float64) []uint32 {
	out := make([]uint32, len(set))
	copy(out, set)
	for i := range out {
		if rng.Float64() < frac {
			out[i] = uint32(rng.Intn(universe))
		}
	}
	return out
}

func TestLSHFindsNearDuplicatesNotStrangers(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const n = 400
	sets := make([][]uint32, n)
	for i := range sets {
		sets[i] = randomSet(rng, 1<<20, 120)
	}
	l := BuildLSH(n, func(i int) []uint32 { return sets[i] }, LSHParams{})

	hit, miss := 0, 0
	for i := 0; i < 50; i++ {
		// A query ~85% similar to subject i must surface i.
		q := mutate(rng, sets[i], 1<<20, 0.15)
		cands := l.Candidates(q, nil)
		found := false
		for _, c := range cands {
			if int(c) == i {
				found = true
				break
			}
		}
		if found {
			hit++
		}
		// Disjoint random sets almost never collide; a large candidate
		// union here would mean the family degenerated.
		if len(cands) > n/4 {
			miss++
		}
	}
	if hit < 48 {
		t.Errorf("near-duplicate recall %d/50, want >= 48", hit)
	}
	if miss > 0 {
		t.Errorf("%d queries matched over a quarter of unrelated subjects", miss)
	}
}

func TestLSHCandidatesSortedDedupedDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const n = 100
	sets := make([][]uint32, n)
	for i := range sets {
		sets[i] = randomSet(rng, 4096, 60) // small universe: forced collisions
	}
	l := BuildLSH(n, func(i int) []uint32 { return sets[i] }, LSHParams{Bands: 32, Rows: 1})
	q := sets[17]
	a := l.Candidates(q, nil)
	b := l.Candidates(q, make([]int32, 0, 8))
	if len(a) == 0 {
		t.Fatal("query found no candidates, not even itself")
	}
	if len(a) != len(b) {
		t.Fatalf("len %d vs %d across calls", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("candidates differ across calls at %d: %d vs %d", i, a[i], b[i])
		}
		if i > 0 && a[i] <= a[i-1] {
			t.Fatalf("candidates not strictly ascending at %d: %v", i, a[:i+1])
		}
	}
	if got := l.Candidates(nil, nil); len(got) != 0 {
		t.Errorf("empty query returned %d candidates", len(got))
	}
}

func TestLSHSeedChangesBucketsButStaysDeterministic(t *testing.T) {
	set := []uint32{1, 2, 3, 4, 5, 6, 7, 8}
	a := BandSignature(set, LSHParams{Seed: 1})
	b := BandSignature(set, LSHParams{Seed: 1})
	c := BandSignature(set, LSHParams{Seed: 2})
	if len(a) != DefaultBands {
		t.Fatalf("signature has %d bands, want %d", len(a), DefaultBands)
	}
	same := true
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed produced different signatures at band %d", i)
		}
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical signatures")
	}
	if got := BandSignature(nil, LSHParams{}); got != nil {
		t.Errorf("empty set signature = %v, want nil", got)
	}
}

// FuzzBandHash pins the banding kernel: no panic on arbitrary sets and
// parameters, and bit-identical output across repeated calls.
func FuzzBandHash(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(16), uint8(3), uint64(0))
	f.Add([]byte{}, uint8(0), uint8(0), uint64(7))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}, uint8(1), uint8(64), uint64(1<<63))
	f.Fuzz(func(t *testing.T, raw []byte, bands, rows uint8, seed uint64) {
		set := make([]uint32, 0, len(raw)/4)
		for i := 0; i+4 <= len(raw); i += 4 {
			set = append(set, uint32(raw[i])|uint32(raw[i+1])<<8|uint32(raw[i+2])<<16|uint32(raw[i+3])<<24)
		}
		// Cap the family size so hostile inputs stay cheap.
		p := LSHParams{Bands: int(bands % 65), Rows: int(rows % 17), Seed: seed}
		a := BandSignature(set, p)
		b := BandSignature(set, p)
		if len(a) != len(b) {
			t.Fatalf("signature length changed across calls: %d vs %d", len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("band %d key changed across calls: %x vs %x", i, a[i], b[i])
			}
		}
	})
}
