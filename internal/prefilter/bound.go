package prefilter

import "sort"

// Upper-bound machinery for the lossless pruned mode.
//
// The bound on a subject's gram dot product is classic WAND: each query
// term j can contribute at most qv_j * max_i(posting value of j), so the
// sum of those per-term maxima bounds any subject's dot, and a partial
// posting walk tightens it — a subject's bound becomes its walked partial
// sum plus the total impact of the unwalked tail. The dense blocks are
// unit-normalised, so their dots are bounded by the block weights alone.

// MaxContrib holds, per gram feature, the largest normalised posting value
// any known subject carries for it. Shards build private tables during the
// parallel index pass and Merge them; max is order-independent, so the
// merged table is identical for any worker count.
type MaxContrib struct {
	vals []float32
}

// NewMaxContrib allocates a table covering feature indices [0, dims).
func NewMaxContrib(dims int) *MaxContrib {
	return &MaxContrib{vals: make([]float32, dims)}
}

// Note records one posting value. Values are non-negative (TF-IDF weights
// of a normalised block).
func (c *MaxContrib) Note(idx uint32, v float32) {
	if v > c.vals[idx] {
		c.vals[idx] = v
	}
}

// Merge folds another shard's table in (elementwise max).
func (c *MaxContrib) Merge(o *MaxContrib) {
	for i, v := range o.vals {
		if v > c.vals[i] {
			c.vals[i] = v
		}
	}
}

// Get returns the recorded maximum for a feature, 0 when the feature is
// out of range (a query gram no known subject has).
func (c *MaxContrib) Get(idx uint32) float32 {
	if int(idx) >= len(c.vals) {
		return 0
	}
	return c.vals[idx]
}

// Dims reports the table size.
func (c *MaxContrib) Dims() int { return len(c.vals) }

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
