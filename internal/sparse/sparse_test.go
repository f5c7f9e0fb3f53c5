package sparse

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func vec(pairs ...float64) Vector {
	v := Vector{}
	for i := 0; i+1 < len(pairs); i += 2 {
		v.Idx = append(v.Idx, uint32(pairs[i]))
		v.Val = append(v.Val, pairs[i+1])
	}
	return v
}

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestFromMapSorted(t *testing.T) {
	v := FromMap(map[uint32]float64{5: 1, 1: 2, 9: 0, 3: -1})
	if !v.IsSorted() {
		t.Fatal("FromMap must produce sorted vector")
	}
	if v.Len() != 3 {
		t.Errorf("zero entry must be dropped; len = %d", v.Len())
	}
	if v.Get(5) != 1 || v.Get(1) != 2 || v.Get(3) != -1 || v.Get(9) != 0 {
		t.Error("Get values wrong")
	}
}

func TestFromDense(t *testing.T) {
	v := FromDense([]float64{0, 1.5, 0, 2})
	if v.Len() != 2 || v.Get(1) != 1.5 || v.Get(3) != 2 {
		t.Errorf("FromDense = %v", v)
	}
}

func TestSortMergesDuplicates(t *testing.T) {
	v := vec(3, 1, 1, 2, 3, 4, 2, 8)
	v.Sort()
	if !v.IsSorted() {
		t.Fatal("not sorted")
	}
	if v.Len() != 3 {
		t.Fatalf("duplicates not merged: %v", v)
	}
	if v.Get(3) != 5 {
		t.Errorf("duplicate values must sum: Get(3) = %v", v.Get(3))
	}
}

func TestDotAndCosine(t *testing.T) {
	a := vec(0, 1, 2, 2, 5, 3)
	b := vec(1, 4, 2, 5, 5, 6)
	if got := Dot(a, b); got != 2*5+3*6 {
		t.Errorf("Dot = %v", got)
	}
	// Orthogonal.
	if got := Cosine(vec(0, 1), vec(1, 1)); got != 0 {
		t.Errorf("orthogonal cosine = %v", got)
	}
	// Identical.
	if got := Cosine(a, a); !almostEqual(got, 1) {
		t.Errorf("self cosine = %v", got)
	}
	// Zero vector.
	if got := Cosine(a, Vector{}); got != 0 {
		t.Errorf("zero cosine = %v", got)
	}
}

func TestNormalize(t *testing.T) {
	v := vec(0, 3, 1, 4)
	v.Normalize()
	if !almostEqual(v.Norm(), 1) {
		t.Errorf("norm after Normalize = %v", v.Norm())
	}
	z := Vector{}
	z.Normalize() // must not panic
}

func TestConcat(t *testing.T) {
	a := vec(0, 1, 2, 2)
	b := vec(0, 5, 3, 6)
	c := Concat(a, b, 10)
	if !c.IsSorted() || c.Len() != 4 {
		t.Fatalf("Concat = %v", c)
	}
	if c.Get(10) != 5 || c.Get(13) != 6 {
		t.Error("offset not applied")
	}
	defer func() {
		if recover() == nil {
			t.Error("Concat with bad offset must panic")
		}
	}()
	Concat(a, b, 1)
}

func TestClone(t *testing.T) {
	a := vec(1, 2)
	b := a.Clone()
	b.Val[0] = 99
	if a.Val[0] != 2 {
		t.Error("Clone must deep-copy")
	}
}

func TestString(t *testing.T) {
	if got := vec(1, 2.5).String(); got != "{1:2.5}" {
		t.Errorf("String = %q", got)
	}
}

// --- properties ---

func toVec(m map[uint32]float64) Vector { return FromMap(m) }

func TestCosineProperties(t *testing.T) {
	f := func(am, bm map[uint32]float64) bool {
		// Restrict to non-negative values (our feature space).
		for k, v := range am {
			am[k] = math.Abs(v)
			if math.IsInf(am[k], 0) || math.IsNaN(am[k]) {
				delete(am, k)
			}
		}
		for k, v := range bm {
			bm[k] = math.Abs(v)
			if math.IsInf(bm[k], 0) || math.IsNaN(bm[k]) {
				delete(bm, k)
			}
		}
		a, b := toVec(am), toVec(bm)
		cab, cba := Cosine(a, b), Cosine(b, a)
		if !almostEqual(cab, cba) {
			return false // symmetry
		}
		return cab >= -1e-9 && cab <= 1+1e-9 // bounded for non-negative vectors
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDotMatchesMapCrossCheck(t *testing.T) {
	f := func(am, bm map[uint32]float64) bool {
		for k, v := range am {
			if math.IsInf(v, 0) || math.IsNaN(v) {
				delete(am, k)
			}
		}
		for k, v := range bm {
			if math.IsInf(v, 0) || math.IsNaN(v) {
				delete(bm, k)
			}
		}
		want := 0.0
		for k, v := range am {
			want += v * bm[k]
		}
		got := Dot(toVec(am), toVec(bm))
		return math.Abs(got-want) <= 1e-9*math.Max(1, math.Abs(want))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSortIdempotent(t *testing.T) {
	f := func(idx []uint32, vals []float64) bool {
		n := len(idx)
		if len(vals) < n {
			n = len(vals)
		}
		v := Vector{Idx: append([]uint32(nil), idx[:n]...), Val: append([]float64(nil), vals[:n]...)}
		v.Sort()
		if !v.IsSorted() {
			return false
		}
		before := v.Clone()
		v.Sort()
		if v.Len() != before.Len() {
			return false
		}
		for i := range v.Idx {
			if v.Idx[i] != before.Idx[i] || v.Val[i] != before.Val[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// referenceSort is the packed comparison sort Sort used before the radix
// path existed, kept as the executable spec: sort (index, position) pairs,
// then sum duplicate indices in position order.
func referenceSort(v *Vector) {
	packed := make([]uint64, len(v.Idx))
	for k, i := range v.Idx {
		packed[k] = uint64(i)<<32 | uint64(uint32(k))
	}
	sort.Slice(packed, func(a, b int) bool { return packed[a] < packed[b] })
	vals := make([]float64, len(v.Val))
	copy(vals, v.Val)
	v.Idx = v.Idx[:0]
	v.Val = v.Val[:0]
	for _, p := range packed {
		i := uint32(p >> 32)
		x := vals[uint32(p)]
		if n := len(v.Idx); n > 0 && v.Idx[n-1] == i {
			v.Val[n-1] += x
			continue
		}
		v.Idx = append(v.Idx, i)
		v.Val = append(v.Val, x)
	}
}

// TestSortMatchesReference drives both Sort paths (small comparison sort
// and large radix sort) across random vectors with heavy index collisions
// and asserts bit-identical output — including the float summation order
// of duplicate indices.
func TestSortMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(600) // spans both the <128 and the radix path
		var got, want Vector
		maxIdx := uint32(1)
		switch trial % 3 {
		case 0:
			maxIdx = 40 // dense collisions
		case 1:
			maxIdx = 1 << 17 // vocabulary-scale indices
		case 2:
			maxIdx = math.MaxUint32 // full-width indices: all radix passes
		}
		for i := 0; i < n; i++ {
			idx := uint32(rng.Uint64()) % maxIdx
			val := rng.NormFloat64()
			got.Idx = append(got.Idx, idx)
			got.Val = append(got.Val, val)
			want.Idx = append(want.Idx, idx)
			want.Val = append(want.Val, val)
		}
		got.Sort()
		referenceSort(&want)
		if len(got.Idx) != len(want.Idx) {
			t.Fatalf("trial %d (n=%d): length %d != %d", trial, n, len(got.Idx), len(want.Idx))
		}
		for k := range got.Idx {
			if got.Idx[k] != want.Idx[k] || got.Val[k] != want.Val[k] {
				t.Fatalf("trial %d (n=%d) entry %d: got (%d,%v) want (%d,%v)",
					trial, n, k, got.Idx[k], got.Val[k], want.Idx[k], want.Val[k])
			}
		}
		if !got.IsSorted() {
			t.Fatalf("trial %d: result not strictly sorted", trial)
		}
	}
}

// TestSortScratchReuse sorts vectors of growing and shrinking sizes, and of
// odd and even radix pass counts, through one scratch: the result must be
// Sort's, and the vector must keep its own storage — a scratch that leaked
// into a result would be overwritten by the next sort.
func TestSortScratchReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(100))
	var scratch Vector
	var held []Vector
	var wants []Vector
	for trial := 0; trial < 60; trial++ {
		n := 128 + rng.Intn(2000)
		maxIdx := []uint32{200, 1 << 10, 1 << 17, 1 << 25, math.MaxUint32}[trial%5]
		var got Vector
		for i := 0; i < n; i++ {
			got.Idx = append(got.Idx, uint32(rng.Uint64())%maxIdx)
			got.Val = append(got.Val, rng.NormFloat64())
		}
		want := got.Clone()
		want.Sort()
		got.SortScratch(&scratch)
		held, wants = append(held, got), append(wants, want)
	}
	for i := range held {
		if !reflect.DeepEqual(held[i], wants[i]) {
			t.Fatalf("vector %d differs from Sort's result after later sorts reused the scratch", i)
		}
	}
}
