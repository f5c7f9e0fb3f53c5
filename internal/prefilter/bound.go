package prefilter

import "sort"

// Upper-bound machinery for the lossless pruned mode.
//
// The bound on a subject's gram dot product is classic WAND: each query
// term j can contribute at most qv_j * max_i(posting value of j) — maxima
// the matcher reads off its posting arena — so the sum of those per-term
// maxima bounds any subject's dot, and a partial posting walk tightens it:
// a subject's bound becomes its walked partial sum plus the total impact of
// the unwalked tail. The dense blocks are unit-normalised, so their dots
// are bounded by the block weights alone.

// OrderTermsByImpact returns term positions sorted by descending impact,
// ties broken by ascending position so the order is deterministic. The
// caller's order slice is reused when it has capacity.
func OrderTermsByImpact(imp []float64, order []int) []int {
	order = order[:0]
	for i := range imp {
		order = append(order, i)
	}
	sort.Slice(order, func(a, b int) bool {
		if imp[order[a]] != imp[order[b]] {
			return imp[order[a]] > imp[order[b]]
		}
		return order[a] < order[b]
	})
	return order
}

// Bound is one subject's score upper bound.
type Bound struct {
	UB float64
	ID int32
}

// BoundHeap is a max-heap over bounds: the root is the best remaining
// candidate, ties broken by ascending subject id for determinism. The
// pruned scan heapifies all N bounds in O(N) and pops until the best
// remaining bound cannot beat the running top-k threshold.
type BoundHeap []Bound

// better reports whether a outranks b in pop order.
func better(a, b Bound) bool {
	if a.UB != b.UB {
		return a.UB > b.UB
	}
	return a.ID < b.ID
}

// Init establishes the heap property over the whole slice.
func (h BoundHeap) Init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

func (h BoundHeap) down(i int) {
	n := len(h)
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && better(h[l], h[m]) {
			m = l
		}
		if r < n && better(h[r], h[m]) {
			m = r
		}
		if m == i {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// Pop removes and returns the best remaining bound. The heap must be
// non-empty.
func (h *BoundHeap) Pop() Bound {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	s.down(0)
	*h = s
	return top
}
