package prefilter

import (
	"slices"

	"darklight/internal/splitmix"
)

// Banded MinHash over gram feature-id sets.
//
// Each subject's gram block is reduced to numBands*numRows MinHash values;
// the numRows values of a band fold into one 64-bit bucket key. A query is a
// candidate match for every subject sharing at least one band bucket, so
// the candidate probability follows the usual s-curve 1-(1-s^r)^b in the
// Jaccard similarity s of the two gram sets.
//
// Determinism: the hash family is derived from hashSeed by iterating
// splitmix64 (no math/rand, no time), subjects are inserted in ascending
// id order, and Candidates sorts its union before returning, so the same
// query against the same index yields the same candidates on every run.

// The one operating point: 32 bands of 3 rows, chosen from measured gram-set
// Jaccard on synth worlds. Two documents by the same author land around
// s = 0.35-0.55 under the reduction extraction (word 1-3 + char 1-5 grams),
// where the candidate probability 1-(1-s^3)^32 is 0.72-0.996, while
// unrelated subjects with distinct vocabularies sit near s <= 0.05 and
// collide with probability under 0.005.
const (
	numBands = 32
	numRows  = 3
	// hashSeed spells "darkligh"; any fixed value works, it just must
	// never vary between runs.
	hashSeed = uint64(0x6461726b6c696768)
)

// hashFamily is numBands*numRows seeded hash functions over feature ids.
type hashFamily struct {
	seeds []uint64
}

func newHashFamily() hashFamily {
	seeds := make([]uint64, numBands*numRows)
	s := hashSeed
	for i := range seeds {
		s = splitmix.Mix(s)
		seeds[i] = s
	}
	return hashFamily{seeds: seeds}
}

func (f hashFamily) hash(i int, x uint32) uint64 {
	return splitmix.Mix(f.seeds[i] ^ uint64(x))
}

// signature writes the MinHash signature of a non-empty feature set into
// sig (length len(f.seeds)).
func (f hashFamily) signature(set []uint32, sig []uint64) {
	for i := range sig {
		sig[i] = ^uint64(0)
	}
	for _, x := range set {
		for i := range sig {
			if h := f.hash(i, x); h < sig[i] {
				sig[i] = h
			}
		}
	}
}

// bandKey folds one band's numRows minima into a bucket key. The band index
// participates so identical minima in different bands cannot alias when a
// caller compares keys across bands.
func bandKey(band int, mins []uint64) uint64 {
	k := splitmix.Mix(uint64(band) ^ 0x517cc1b727220a95)
	for _, m := range mins {
		k = splitmix.Mix(k ^ m)
	}
	return k
}

// BandSignature computes the per-band bucket keys of one feature set — the
// unit FuzzBandHash pins deterministic. An empty set has no signature and
// returns nil (such subjects are never bucketed).
func BandSignature(set []uint32) []uint64 {
	if len(set) == 0 {
		return nil
	}
	fam := newHashFamily()
	sig := make([]uint64, numBands*numRows)
	fam.signature(set, sig)
	keys := make([]uint64, numBands)
	for b := range keys {
		keys[b] = bandKey(b, sig[b*numRows:(b+1)*numRows])
	}
	return keys
}

// LSH is one immutable banded-MinHash index over n subjects. Build once,
// query concurrently.
type LSH struct {
	fam hashFamily
	// buckets[band][key] lists subject ids in ascending order (subjects
	// are inserted in id order and never reordered).
	buckets []map[uint64][]int32
}

// BuildLSH indexes subjects 0..n-1; set returns each subject's gram
// feature ids (subjects with empty sets are skipped — they can never be
// LSH candidates, matching their zero Jaccard against any query).
func BuildLSH(n int, set func(i int) []uint32) *LSH {
	l := &LSH{
		fam:     newHashFamily(),
		buckets: make([]map[uint64][]int32, numBands),
	}
	for b := range l.buckets {
		l.buckets[b] = make(map[uint64][]int32)
	}
	sig := make([]uint64, numBands*numRows)
	for i := 0; i < n; i++ {
		s := set(i)
		if len(s) == 0 {
			continue
		}
		l.fam.signature(s, sig)
		for b := range l.buckets {
			key := bandKey(b, sig[b*numRows:(b+1)*numRows])
			l.buckets[b][key] = append(l.buckets[b][key], int32(i))
		}
	}
	return l
}

// Candidates returns the subjects sharing at least one band bucket with
// the query set, ascending and deduplicated. buf supplies reusable
// capacity. An empty query set has no candidates.
func (l *LSH) Candidates(set []uint32, buf []int32) []int32 {
	out := buf[:0]
	if len(set) == 0 {
		return out
	}
	sig := make([]uint64, numBands*numRows)
	l.fam.signature(set, sig)
	for b := range l.buckets {
		key := bandKey(b, sig[b*numRows:(b+1)*numRows])
		out = append(out, l.buckets[b][key]...)
	}
	slices.Sort(out)
	return slices.Compact(out)
}
