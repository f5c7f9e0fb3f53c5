package attribution

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"darklight/internal/features"
	"darklight/internal/prefilter"
)

// randomForward draws n subjects' forward lists over dims gram features:
// sorted distinct ids, arbitrary float32 values, empty subjects included.
func randomForward(rng *rand.Rand, n, dims int) ([][]uint32, [][]float32) {
	fwdIdx, fwdVal := make([][]uint32, n), make([][]float32, n)
	for i := range fwdIdx {
		if dims == 0 || rng.Intn(6) == 0 {
			continue
		}
		for _, g := range rng.Perm(dims)[:rng.Intn(dims+1)] {
			fwdIdx[i] = append(fwdIdx[i], uint32(g))
		}
		sort.Slice(fwdIdx[i], func(a, b int) bool { return fwdIdx[i][a] < fwdIdx[i][b] })
		for range fwdIdx[i] {
			fwdVal[i] = append(fwdVal[i], rng.Float32())
		}
	}
	return fwdIdx, fwdVal
}

// TestInvertForwardProperty pins the one inversion every matcher's posting
// arena comes from: offsets monotone and closing on the posting total,
// subjects strictly ascending inside a gram (the order stage 1 accumulates
// float32 sums in), and every (gram, subject, value) of the forward lists
// present exactly once — walking the arena gram by gram must hand each
// subject its own forward list back, in order. Empty and single-subject
// worlds and a zero-gram vocabulary included.
func TestInvertForwardProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2200))
	for trial := 0; trial < 300; trial++ {
		n, dims := rng.Intn(40), rng.Intn(60)
		switch trial % 10 {
		case 0:
			n = 0
		case 1:
			n = 1
		case 2:
			dims = 0
		}
		fwdIdx, fwdVal := randomForward(rng, n, dims)
		off, subj, val, err := invertForward(fwdIdx, fwdVal, dims)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		total := 0
		for _, ids := range fwdIdx {
			total += len(ids)
		}
		if len(off) != dims+1 || off[0] != 0 || int(off[dims]) != total || len(subj) != total || len(val) != total {
			t.Fatalf("trial %d: %d offsets closing on %d, %d subjects, %d values; want %d offsets, %d postings",
				trial, len(off), off[len(off)-1], len(subj), len(val), dims+1, total)
		}
		backIdx, backVal := make([][]uint32, n), make([][]float32, n)
		for g := 0; g < dims; g++ {
			if off[g+1] < off[g] {
				t.Fatalf("trial %d: offsets fall at gram %d", trial, g)
			}
			for p := off[g]; p < off[g+1]; p++ {
				if p > off[g] && subj[p] <= subj[p-1] {
					t.Fatalf("trial %d: gram %d lists subject %d after %d", trial, g, subj[p], subj[p-1])
				}
				backIdx[subj[p]] = append(backIdx[subj[p]], uint32(g))
				backVal[subj[p]] = append(backVal[subj[p]], val[p])
			}
		}
		if !reflect.DeepEqual(backIdx, fwdIdx) || !reflect.DeepEqual(backVal, fwdVal) {
			t.Fatalf("trial %d: the arena does not hold the forward lists' postings exactly once", trial)
		}
	}
}

// TestInvertForwardRejectsMalformed: forward lists come from a snapshot on
// the load path, so an id outside the vocabulary or lists of unequal
// length must fail the inversion, not index past an array.
func TestInvertForwardRejectsMalformed(t *testing.T) {
	if _, _, _, err := invertForward([][]uint32{{0, 4}, {5}}, [][]float32{{1, 1}, {1}}, 5); err == nil {
		t.Error("gram id equal to the vocabulary size accepted")
	}
	if _, _, _, err := invertForward([][]uint32{{0, 4}}, [][]float32{{1}}, 5); err == nil {
		t.Error("forward lists of unequal length accepted")
	}
	if _, _, _, err := invertForward([][]uint32{{0}}, [][]float32{{1}}, 0); err == nil {
		t.Error("a posting in a zero-gram vocabulary accepted")
	}
}

// TestExactSkipOfZeroWeightTermsMovesNoBit: rankExact passes over query
// terms of float32 weight zero — the grams every known subject has, IDF 0.
// On a world that has them, with a query that has them, its ids, order and
// score bits must equal scoring every subject with scoreOne, which adds
// those zero products.
func TestExactSkipOfZeroWeightTermsMovesNoBit(t *testing.T) {
	known, probes := split(makeAuthors(t, 25, 300))
	m, err := NewMatcher(known, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	w := m.opts.weights()
	wf2, wa2 := w.Freq*w.Freq, w.Activity*w.Activity
	var buf, refBuf matchBuffers
	for pi := range probes {
		doc := features.Extract(probes[pi].Text, m.opts.Reduction)
		ub := buildBlocks(&probes[pi], m.vocab, m.opts.Reduction)
		qv32 := refBuf.queryVals(ub.grams.Val)
		skipped := 0
		for j, v := range qv32 {
			if v == 0 && m.postOff[ub.grams.Idx[j]+1] > m.postOff[ub.grams.Idx[j]] {
				skipped++
			}
		}
		if skipped == 0 {
			t.Fatalf("probe %d: no zero-weight query term with postings; the world does not exercise the skip", pi)
		}
		scores := make([]float64, len(known))
		for i := range known {
			scores[i] = m.scoreOne(i, &ub, qv32, wf2, wa2, w, ub.norm(w))
		}
		want, _ := topKScores(m.known, scores, len(known), nil)
		got, st := m.rankDoc(doc, &probes[pi], MatchOptions{K: len(known), Mode: prefilter.ModeExact}, &buf)
		if st.Mode != prefilter.ModeExact || len(got) != len(want) {
			t.Fatalf("probe %d: ran as %v, %d results, want %d", pi, st.Mode, len(got), len(want))
		}
		for j := range want {
			if got[j].Name != want[j].Name || math.Float64bits(got[j].Score) != math.Float64bits(want[j].Score) {
				t.Fatalf("probe %d rank %d: exact %q %x, scoreOne %q %x", pi, j,
					got[j].Name, math.Float64bits(got[j].Score), want[j].Name, math.Float64bits(want[j].Score))
			}
		}
	}
}

// TestRankAllocationCeiling: beyond extracting the query's document,
// which RankDetailed does first, a warm stage-1 rank allocates a fixed
// handful — the query's frequency and activity blocks and the returned
// slice, 3 measured — and nothing the size of the vocabulary, the known set
// or the document: the query vector, the accumulators and the heap are the
// buffer's.
func TestRankAllocationCeiling(t *testing.T) {
	known, probes := split(makeAuthors(t, 20, 1500))
	m, err := NewMatcher(known, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	probe := &probes[3]
	// A scratch of the test's own, as a MatchAll worker holds one: under
	// -race sync.Pool drops buffers at random, which is not what is measured.
	var buf matchBuffers
	doc := features.Extract(probe.Text, m.opts.Reduction)
	m.rankDoc(doc, probe, MatchOptions{K: 10}, &buf)
	rank := testing.AllocsPerRun(20, func() {
		m.rankDoc(doc, probe, MatchOptions{K: 10}, &buf)
	})
	const ceiling = 4
	if rank > ceiling {
		t.Errorf("warm rank of an extracted document allocates %.0f, ceiling %d", rank, ceiling)
	}
}
