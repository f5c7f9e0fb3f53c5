package prefilter

import (
	"slices"

	"darklight/internal/splitmix"
)

// Banded MinHash over gram feature-id sets.
//
// Each subject's gram block is reduced to Bands*Rows MinHash values; the
// Rows values of a band fold into one 64-bit bucket key. A query is a
// candidate match for every subject sharing at least one band bucket, so
// the candidate probability follows the usual s-curve 1-(1-s^r)^b in the
// Jaccard similarity s of the two gram sets.
//
// Determinism: the hash family is derived from the seed by iterating
// splitmix64 (no math/rand, no time), subjects are inserted in ascending
// id order, and Candidates sorts its union before returning, so the same
// query against the same index yields the same candidates on every run.

// hashFamily is n seeded hash functions over feature ids.
type hashFamily struct {
	seeds []uint64
}

func newHashFamily(n int, seed uint64) hashFamily {
	seeds := make([]uint64, n)
	s := seed
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

// bandKey folds one band's Rows minima into a bucket key. The band index
// participates so identical minima in different bands cannot alias when a
// caller compares keys across bands.
func bandKey(band int, mins []uint64) uint64 {
	k := splitmix.Mix(uint64(band) ^ 0x517cc1b727220a95)
	for _, m := range mins {
		k = splitmix.Mix(k ^ m)
	}
	return k
}

// BandSignature computes the per-band bucket keys of one feature set under
// one operating point — the unit FuzzBandHash pins deterministic. An empty
// set has no signature and returns nil (such subjects are never bucketed).
func BandSignature(set []uint32, p LSHParams) []uint64 {
	p = p.WithDefaults()
	if len(set) == 0 {
		return nil
	}
	fam := newHashFamily(p.Bands*p.Rows, p.Seed)
	sig := make([]uint64, p.Bands*p.Rows)
	fam.signature(set, sig)
	keys := make([]uint64, p.Bands)
	for b := 0; b < p.Bands; b++ {
		keys[b] = bandKey(b, sig[b*p.Rows:(b+1)*p.Rows])
	}
	return keys
}

// LSH is one immutable banded-MinHash index over n subjects. Build once,
// query concurrently.
type LSH struct {
	p   LSHParams
	fam hashFamily
	// buckets[band][key] lists subject ids in ascending order (subjects
	// are inserted in id order and never reordered).
	buckets []map[uint64][]int32
}

// BuildLSH indexes subjects 0..n-1; set returns each subject's gram
// feature ids (subjects with empty sets are skipped — they can never be
// LSH candidates, matching their zero Jaccard against any query).
func BuildLSH(n int, set func(i int) []uint32, p LSHParams) *LSH {
	p = p.WithDefaults()
	l := &LSH{
		p:       p,
		fam:     newHashFamily(p.Bands*p.Rows, p.Seed),
		buckets: make([]map[uint64][]int32, p.Bands),
	}
	for b := range l.buckets {
		l.buckets[b] = make(map[uint64][]int32)
	}
	sig := make([]uint64, p.Bands*p.Rows)
	for i := 0; i < n; i++ {
		s := set(i)
		if len(s) == 0 {
			continue
		}
		l.fam.signature(s, sig)
		for b := 0; b < p.Bands; b++ {
			key := bandKey(b, sig[b*p.Rows:(b+1)*p.Rows])
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
	sig := make([]uint64, l.p.Bands*l.p.Rows)
	l.fam.signature(set, sig)
	for b := 0; b < l.p.Bands; b++ {
		key := bandKey(b, sig[b*l.p.Rows:(b+1)*l.p.Rows])
		out = append(out, l.buckets[b][key]...)
	}
	slices.Sort(out)
	return slices.Compact(out)
}
