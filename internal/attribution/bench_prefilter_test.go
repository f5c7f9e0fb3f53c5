package attribution

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"darklight/internal/prefilter"
	"darklight/internal/sparse"
)

// Pre-filter scaling benchmarks: the three stage-1 paths over the same
// synthetic index at N ∈ {1k, 10k, 100k}. The worlds are built directly
// from constructed gram blocks — extracting 100k real documents would
// dominate the benchmark setup a thousandfold without changing what is
// measured (the scan itself) — but they reproduce the structure the real
// TF-IDF vectorization gives the index:
//
//   - A small set of near-universal grams (function-word char grams):
//     posting lists ~N long, values ≈ 0 after IDF weighting. The exact
//     scan walks all of them; the pruned walk skips them wholesale
//     because their impact is negligible — this is where sub-linearity
//     comes from on real text.
//   - Discriminative cluster grams: subjects come in clusters of 30
//     sharing ~85% of a 200-term set (gram-set Jaccard ≈ 0.6 within a
//     cluster, ≈ 0.06 across), short posting lists, heavy-tailed values
//     (u⁴, the shape TF-IDF weighting produces). The LSH index drops the
//     weightless universal grams (MinHash floor), so cross-cluster
//     collisions are rare and its scored set is essentially the query's
//     cluster.
//
// Every benchmark reports the mean exactly-scored candidates per query as
// a `cands/op` metric. These synthetic worlds are a regime the real
// corpora we can hold in memory do not reach; what stage 1 costs on real
// worlds is BENCHMARK.json's attribution.rank_{exact,pruned,lsh}_ms and
// prefilter.scored_frac (bash bench/run.sh -trace 1).

const (
	benchDims        = 65536
	benchClusterSize = 30
	benchBaseTerms   = 200
	benchKeepPct     = 85
	benchExtraTerms  = 12
	benchTopK        = 10
	// Universal grams: ids [0, benchUniversal), each present in a subject
	// with probability benchUniversalPct/100.
	benchUniversal    = 35
	benchUniversalPct = 80
)

type benchWorld struct {
	m     *Matcher
	query blocks
	w     Weights
}

var (
	benchWorlds   = map[int]*benchWorld{}
	benchWorldsMu sync.Mutex
)

// benchSubjectTerms draws one subject's sorted term ids: most of the
// universal head, its cluster's base set thinned to 85%, and a few random
// extras.
func benchSubjectTerms(rng *rand.Rand, base []uint32) []uint32 {
	seen := make(map[uint32]bool, benchBaseTerms)
	for t := uint32(0); t < benchUniversal; t++ {
		if rng.Intn(100) < benchUniversalPct {
			seen[t] = true
		}
	}
	for _, t := range base {
		if rng.Intn(100) < benchKeepPct {
			seen[t] = true
		}
	}
	for i := 0; i < benchExtraTerms; i++ {
		seen[benchUniversal+uint32(rng.Intn(benchDims-benchUniversal))] = true
	}
	terms := make([]uint32, 0, len(seen))
	for t := range seen {
		terms = append(terms, t)
	}
	sort.Slice(terms, func(a, b int) bool { return terms[a] < terms[b] })
	return terms
}

// benchVector attaches unit-norm values to a term set. Universal grams
// get near-zero values (IDF of a corpus-universal gram ≈ 0) and the rest
// are heavy-tailed (u⁴), the shape TF-IDF weighting produces: a few
// discriminative grams carry most of a vector's mass and a long tail
// carries almost none. The pruned walk depends on this shape — it walks
// the heavy terms and folds the tail into the bounds — so uniform values
// would benchmark the pre-filter on data unlike anything the pipeline
// produces.
func benchVector(rng *rand.Rand, terms []uint32) sparse.Vector {
	vals := make([]float64, len(terms))
	norm := 0.0
	for i := range vals {
		if terms[i] < benchUniversal {
			vals[i] = 0.00002 + 0.00004*rng.Float64()
		} else {
			u := rng.Float64()
			vals[i] = 0.02 + u*u*u*u
		}
		norm += vals[i] * vals[i]
	}
	norm = math.Sqrt(norm)
	for i := range vals {
		vals[i] /= norm
	}
	return sparse.Vector{Idx: terms, Val: vals}
}

// getBenchWorld builds (and memoises) the synthetic matcher for one N,
// assembling the forward lists directly in the shape the build pass
// produces and inverting them with the matcher's own inversion.
func getBenchWorld(tb testing.TB, n int) *benchWorld {
	tb.Helper()
	benchWorldsMu.Lock()
	defer benchWorldsMu.Unlock()
	if w, ok := benchWorlds[n]; ok {
		return w
	}
	rng := rand.New(rand.NewSource(int64(9000 + n)))
	clusters := (n + benchClusterSize - 1) / benchClusterSize
	bases := make([][]uint32, clusters)
	for c := range bases {
		seen := make(map[uint32]bool, benchBaseTerms)
		for len(seen) < benchBaseTerms {
			seen[benchUniversal+uint32(rng.Intn(benchDims-benchUniversal))] = true
		}
		base := make([]uint32, 0, benchBaseTerms)
		for t := range seen {
			base = append(base, t)
		}
		sort.Slice(base, func(a, b int) bool { return base[a] < base[b] })
		bases[c] = base
	}

	m := &Matcher{
		opts:   Options{K: benchTopK},
		known:  make([]Subject, n),
		mask:   make([]uint8, n),
		freqs:  make([][]float64, n),
		acts:   make([][]float64, n),
		fwdIdx: make([][]uint32, n),
		fwdVal: make([][]float32, n),
		lshIdx: make(map[prefilter.LSHParams]*prefilter.LSH),
	}
	for i := 0; i < n; i++ {
		m.known[i] = Subject{Name: fmt.Sprintf("s%06d", i)}
		v := benchVector(rng, benchSubjectTerms(rng, bases[i/benchClusterSize]))
		vals32 := make([]float32, len(v.Val))
		for k, val := range v.Val {
			vals32[k] = float32(val)
		}
		m.mask[i] = maskGrams
		m.fwdIdx[i] = v.Idx
		m.fwdVal[i] = vals32
	}
	var err error
	if m.postOff, m.postSubj, m.postVal, err = invertForward(m.fwdIdx, m.fwdVal, benchDims); err != nil {
		tb.Fatal(err)
	}

	// The query is written in cluster 0's voice, so its true top-k are
	// real near-neighbours, not noise.
	query := blocks{grams: benchVector(rng, benchSubjectTerms(rng, bases[0]))}
	w := &benchWorld{m: m, query: query, w: Weights{Freq: 0.2, Activity: 0.7}}
	benchWorlds[n] = w
	return w
}

// benchSizes skips the 100k world in -short runs (CI smoke uses 1x
// benchtime where even 100k is cheap, but `go test -short -bench` should
// stay snappy).
func benchSizes(b *testing.B) []int {
	if testing.Short() {
		return []int{1000, 10000}
	}
	return []int{1000, 10000, 100000}
}

func benchRank(b *testing.B, n int, run func(w *benchWorld, buf *matchBuffers) prefilter.Stats) {
	w := getBenchWorld(b, n)
	var buf matchBuffers
	scored := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := run(w, &buf)
		scored += st.Scored
	}
	b.ReportMetric(float64(scored)/float64(b.N), "cands/op")
}

func BenchmarkRankExact(b *testing.B) {
	for _, n := range benchSizes(b) {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			benchRank(b, n, func(w *benchWorld, buf *matchBuffers) prefilter.Stats {
				_, st := w.m.rankExact(&w.query, benchTopK, w.w, 1, buf)
				return st
			})
		})
	}
}

func BenchmarkRankPruned(b *testing.B) {
	p := prefilter.PrunedParams{}.WithDefaults()
	for _, n := range benchSizes(b) {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			benchRank(b, n, func(w *benchWorld, buf *matchBuffers) prefilter.Stats {
				_, st := w.m.rankPruned(&w.query, benchTopK, w.w, 1, buf, p)
				return st
			})
		})
	}
}

func BenchmarkRankLSH(b *testing.B) {
	p := prefilter.LSHParams{}.WithDefaults()
	for _, n := range benchSizes(b) {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			w := getBenchWorld(b, n)
			w.m.lshFor(p) // build outside the timed loop; queries share it
			benchRank(b, n, func(w *benchWorld, buf *matchBuffers) prefilter.Stats {
				_, st := w.m.rankLSH(&w.query, benchTopK, w.w, 1, buf, p)
				return st
			})
		})
	}
}

// TestBenchWorldAgrees sanity-checks the synthetic worlds the benchmarks
// run on: the pruned path must reproduce the exact top-k bit for bit, and
// the LSH path must find the query's cluster (recall >= 0.9 of the true
// top-10 on the smallest world), otherwise the measured speedups would be
// speedups at the wrong answer.
func TestBenchWorldAgrees(t *testing.T) {
	w := getBenchWorld(t, 1000)
	var buf matchBuffers
	exact, est := w.m.rankExact(&w.query, benchTopK, w.w, 1, &buf)
	pruned, pst := w.m.rankPruned(&w.query, benchTopK, w.w, 1, &buf, prefilter.PrunedParams{}.WithDefaults())
	if len(exact) != len(pruned) {
		t.Fatalf("pruned returned %d, exact %d", len(pruned), len(exact))
	}
	for i := range exact {
		if exact[i] != pruned[i] {
			t.Fatalf("pruned diverges at %d: %+v vs %+v", i, pruned[i], exact[i])
		}
	}
	if pst.Scored >= est.Scored {
		t.Errorf("pruned scored %d of %d: no pruning on the bench world", pst.Scored, est.Scored)
	}
	lsh, lst := w.m.rankLSH(&w.query, benchTopK, w.w, 1, &buf, prefilter.LSHParams{}.WithDefaults())
	truth := make(map[string]bool, len(exact))
	for _, s := range exact {
		truth[s.Name] = true
	}
	hits := 0
	for _, s := range lsh {
		if truth[s.Name] {
			hits++
		}
	}
	if hits < 9 {
		t.Errorf("LSH recovered %d/10 of the true top-10 on the bench world", hits)
	}
	if lst.Scored >= len(w.m.known)/4 {
		t.Errorf("LSH scored %d of %d subjects: clusters are not separating", lst.Scored, len(w.m.known))
	}
}
