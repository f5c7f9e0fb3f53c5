package prefilter

import (
	"math/rand"
	"sort"
	"testing"
)

func TestOrderTermsByImpact(t *testing.T) {
	imp := []float64{0.5, 2, 0.5, 3, 0}
	order := OrderTermsByImpact(imp, nil)
	want := []int{3, 1, 0, 2, 4} // desc impact, ties by ascending position
	if len(order) != len(want) {
		t.Fatalf("len = %d, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestBoundHeapPopsDescending(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	h := make(BoundHeap, 0, 200)
	for i := 0; i < 200; i++ {
		// Coarse values force UB ties, exercising the id tie-break.
		h = append(h, Bound{UB: float64(rng.Intn(10)), ID: int32(i)})
	}
	ref := make([]Bound, len(h))
	copy(ref, h)
	sort.Slice(ref, func(a, b int) bool { return better(ref[a], ref[b]) })
	h.Init()
	for i := range ref {
		got := h.Pop()
		if got != ref[i] {
			t.Fatalf("pop %d = %+v, want %+v", i, got, ref[i])
		}
	}
}
