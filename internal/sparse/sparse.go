// Package sparse implements the sparse vector arithmetic at the heart of
// the attribution pipeline. Feature vectors over 65k-dimensional n-gram
// vocabularies are overwhelmingly sparse; representing them as sorted
// (index, value) pairs makes cosine similarity — the paper's eq. (2) — a
// single linear merge with no hashing in the hot path.
package sparse

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
)

// Vector is a sparse vector: parallel slices of strictly increasing indices
// and their values. The zero value is the zero vector. Vectors built by
// FromDense or finished with Sort satisfy the ordering invariant; Dot and
// Cosine require it.
type Vector struct {
	Idx []uint32
	Val []float64
}

// FromDense builds a sparse vector from a dense slice, using positions as
// indices and dropping zeros.
func FromDense(dense []float64) Vector {
	var v Vector
	for i, x := range dense {
		if x != 0 {
			v.Idx = append(v.Idx, uint32(i))
			v.Val = append(v.Val, x)
		}
	}
	return v
}

// Len returns the number of stored (non-zero) entries.
func (v Vector) Len() int { return len(v.Idx) }

// IsSorted reports whether indices are strictly increasing.
func (v Vector) IsSorted() bool {
	for i := 1; i < len(v.Idx); i++ {
		if v.Idx[i] <= v.Idx[i-1] {
			return false
		}
	}
	return true
}

// Sort orders entries by index, summing values of duplicate indices (in
// their original order, so the float result is deterministic). Use after
// constructing a vector by appending. Large vectors take a stable LSD
// radix sort over the index bytes — vectorization finishes every vector
// with a Sort, and a comparison sort of the (index, position) pairs is the
// single most expensive step of the scoring hot path; small vectors keep
// the packed comparison sort, where the radix passes don't pay off.
func (v *Vector) Sort() {
	var scratch Vector
	v.SortScratch(&scratch)
}

// SortScratch is Sort with the radix passes' second buffer taken from (and
// grown into) scratch, so sorting vector after vector with one scratch
// allocates nothing once it is warm. scratch's contents are unspecified
// afterwards.
func (v *Vector) SortScratch(scratch *Vector) {
	if v.IsSorted() {
		return
	}
	if len(v.Idx) >= 128 {
		v.radixSort(scratch)
		return
	}
	packed := make([]uint64, len(v.Idx))
	for k, i := range v.Idx {
		packed[k] = uint64(i)<<32 | uint64(uint32(k))
	}
	slices.Sort(packed)
	vals := make([]float64, len(v.Val))
	copy(vals, v.Val)
	v.Idx = v.Idx[:0]
	v.Val = v.Val[:0]
	for _, p := range packed {
		i := uint32(p >> 32)
		x := vals[uint32(p)]
		v.appendSummed(i, x)
	}
}

// appendSummed appends (i, x), folding x into the last value when the
// index repeats — the shared compaction step of both sort paths.
func (v *Vector) appendSummed(i uint32, x float64) {
	if n := len(v.Idx); n > 0 && v.Idx[n-1] == i {
		v.Val[n-1] += x
		return
	}
	v.Idx = append(v.Idx, i)
	v.Val = append(v.Val, x)
}

// radixSort is the large-vector path of Sort: stable byte-wise LSD radix
// on the indices, carrying values alongside. Stability makes duplicate
// indices end up in original order, so the duplicate-summing compaction
// adds values in exactly the order the packed comparison sort would.
func (v *Vector) radixSort(scratch *Vector) {
	n := len(v.Idx)
	maxIdx := uint32(0)
	for _, i := range v.Idx {
		if i > maxIdx {
			maxIdx = i
		}
	}
	srcI, srcV := v.Idx, v.Val
	if cap(scratch.Idx) < n || cap(scratch.Val) < n {
		scratch.Idx, scratch.Val = make([]uint32, n), make([]float64, n)
	}
	dstI, dstV := scratch.Idx[:n], scratch.Val[:n]
	var counts [256]int
	for shift := uint(0); shift == 0 || maxIdx>>shift > 0; shift += 8 {
		clear(counts[:])
		for _, x := range srcI {
			counts[(x>>shift)&0xff]++
		}
		if counts[(srcI[0]>>shift)&0xff] == n {
			continue // all keys share this byte: pass is a no-op
		}
		sum := 0
		for d := range counts {
			counts[d], sum = sum, sum+counts[d]
		}
		for k, x := range srcI {
			p := counts[(x>>shift)&0xff]
			counts[(x>>shift)&0xff]++
			dstI[p], dstV[p] = x, srcV[k]
		}
		srcI, srcV, dstI, dstV = dstI, dstV, srcI, srcV
	}
	// Compact duplicates into the vector's own storage. srcI/srcV hold the
	// sorted entries; they may alias v's slices, but compaction only writes
	// at or behind the read cursor, so in-place is safe.
	sortedI, sortedV := srcI, srcV
	v.Idx = v.Idx[:0]
	v.Val = v.Val[:0]
	for k, i := range sortedI {
		v.appendSummed(i, sortedV[k])
	}
}

// Get returns the value at index i (0 when absent). O(log n).
func (v Vector) Get(i uint32) float64 {
	k := sort.Search(len(v.Idx), func(j int) bool { return v.Idx[j] >= i })
	if k < len(v.Idx) && v.Idx[k] == i {
		return v.Val[k]
	}
	return 0
}

// Dot returns the inner product of two sorted vectors.
func Dot(a, b Vector) float64 {
	sum := 0.0
	i, j := 0, 0
	for i < len(a.Idx) && j < len(b.Idx) {
		switch {
		case a.Idx[i] == b.Idx[j]:
			sum += a.Val[i] * b.Val[j]
			i++
			j++
		case a.Idx[i] < b.Idx[j]:
			i++
		default:
			j++
		}
	}
	return sum
}

// Norm returns the Euclidean norm.
func (v Vector) Norm() float64 {
	sum := 0.0
	for _, x := range v.Val {
		sum += x * x
	}
	return math.Sqrt(sum)
}

// Cosine returns the cosine similarity of two sorted vectors — eq. (2) of
// the paper. Either vector being zero yields 0. With non-negative features
// (term frequencies, activity profiles) the result lies in [0, 1].
func Cosine(a, b Vector) float64 {
	na, nb := a.Norm(), b.Norm()
	if na == 0 || nb == 0 {
		return 0
	}
	return Dot(a, b) / (na * nb)
}

// Scale multiplies every value by s, in place, and returns v for chaining.
func (v Vector) Scale(s float64) Vector {
	for i := range v.Val {
		v.Val[i] *= s
	}
	return v
}

// Normalize scales v to unit norm in place (no-op for the zero vector) and
// returns it. Pre-normalised vectors make repeated cosine computations a
// plain dot product.
func (v Vector) Normalize() Vector {
	n := v.Norm()
	if n == 0 {
		return v
	}
	return v.Scale(1 / n)
}

// Clone returns a deep copy.
func (v Vector) Clone() Vector {
	out := Vector{Idx: make([]uint32, len(v.Idx)), Val: make([]float64, len(v.Val))}
	copy(out.Idx, v.Idx)
	copy(out.Val, v.Val)
	return out
}

// Concat appends b's entries after a's, offsetting b's indices by offset.
// It is how the paper concatenates the 24-dimensional daily activity
// profile onto the text feature vector. offset must exceed a's largest
// index; Concat panics otherwise because the result would be unsorted —
// this is a programming error, not an input error.
func Concat(a Vector, b Vector, offset uint32) Vector {
	if len(a.Idx) > 0 && a.Idx[len(a.Idx)-1] >= offset {
		panic(fmt.Sprintf("sparse: concat offset %d not past max index %d", offset, a.Idx[len(a.Idx)-1]))
	}
	out := Vector{
		Idx: make([]uint32, 0, len(a.Idx)+len(b.Idx)),
		Val: make([]float64, 0, len(a.Val)+len(b.Val)),
	}
	out.Idx = append(out.Idx, a.Idx...)
	out.Val = append(out.Val, a.Val...)
	for k, i := range b.Idx {
		out.Idx = append(out.Idx, i+offset)
		out.Val = append(out.Val, b.Val[k])
	}
	return out
}

// String renders a short human-readable form, for debugging and tests.
func (v Vector) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for k := range v.Idx {
		if k > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%d:%.4g", v.Idx[k], v.Val[k])
		if k >= 15 && len(v.Idx) > 17 {
			fmt.Fprintf(&b, ", …%d more", len(v.Idx)-k-1)
			break
		}
	}
	b.WriteByte('}')
	return b.String()
}
