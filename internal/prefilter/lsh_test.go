package prefilter

import (
	"math/rand"
	"testing"
)

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
	l := BuildLSH(n, func(i int) []uint32 { return sets[i] })

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
		sets[i] = randomSet(rng, 128, 60) // small universe: forced collisions
	}
	l := BuildLSH(n, func(i int) []uint32 { return sets[i] })
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

// FuzzBandHash pins the banding kernel: no panic on arbitrary sets, one
// key per band, and bit-identical output across repeated calls.
func FuzzBandHash(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, raw []byte) {
		set := make([]uint32, 0, len(raw)/4)
		for i := 0; i+4 <= len(raw); i += 4 {
			set = append(set, uint32(raw[i])|uint32(raw[i+1])<<8|uint32(raw[i+2])<<16|uint32(raw[i+3])<<24)
		}
		a := BandSignature(set)
		b := BandSignature(set)
		switch {
		case len(set) == 0 && a != nil:
			t.Fatalf("empty set signature = %v, want nil", a)
		case len(set) > 0 && len(a) != numBands:
			t.Fatalf("signature has %d bands, want %d", len(a), numBands)
		}
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
