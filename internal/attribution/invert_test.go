package attribution

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
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
// worlds and a zero-gram vocabulary included, and worlds of several
// hundred thousand postings, which span several tiles: at 2, 3 and 7
// workers every arena must equal the one-worker arena bit for bit.
func TestInvertForwardProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2200))
	for trial := 0; trial < 300; trial++ {
		n, dims := rng.Intn(40), rng.Intn(60)
		switch {
		case trial%10 == 0:
			n = 0
		case trial%10 == 1:
			n = 1
		case trial%10 == 2:
			dims = 0
		case trial%50 == 3:
			n, dims = 300, 3000
		}
		fwdIdx, fwdVal := randomForward(rng, n, dims)
		off, subj, val, err := invertForward(fwdIdx, fwdVal, dims, 1)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		total := 0
		for _, ids := range fwdIdx {
			total += len(ids)
		}
		if trial%50 == 3 && total < 4<<15 {
			t.Fatalf("trial %d: %d postings do not span several tiles", trial, total)
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
		for _, workers := range []int{2, 3, 7} {
			woff, wsubj, wval, err := invertForward(fwdIdx, fwdVal, dims, workers)
			if err != nil {
				t.Fatalf("trial %d, %d workers: %v", trial, workers, err)
			}
			if !slices.Equal(woff, off) || !slices.Equal(wsubj, subj) || len(wval) != len(val) {
				t.Fatalf("trial %d: the %d-worker arena's offsets or subjects differ from one worker's", trial, workers)
			}
			for p := range val {
				if math.Float32bits(wval[p]) != math.Float32bits(val[p]) {
					t.Fatalf("trial %d: posting %d holds %x at %d workers, %x at one", trial, p, math.Float32bits(wval[p]), workers, math.Float32bits(val[p]))
				}
			}
		}
	}
}

// TestInvertForwardRejectsMalformed: forward lists come from a snapshot on
// the load path, so an id outside the vocabulary, lists of unequal length
// and a list that does not strictly ascend — the tiled walk depends on the
// order — must fail the inversion, not index past an array or misplace a
// posting.
func TestInvertForwardRejectsMalformed(t *testing.T) {
	for _, tc := range []struct {
		name   string
		fwdIdx [][]uint32
		fwdVal [][]float32
		dims   int
	}{
		{"gram id equal to the vocabulary size", [][]uint32{{0, 4}, {5}}, [][]float32{{1, 1}, {1}}, 5},
		{"forward lists of unequal length", [][]uint32{{0, 4}}, [][]float32{{1}}, 5},
		{"a posting in a zero-gram vocabulary", [][]uint32{{0}}, [][]float32{{1}}, 0},
		{"a descending id", [][]uint32{{0, 1}, {3, 2}}, [][]float32{{1, 1}, {1, 1}}, 5},
		{"a duplicate id", [][]uint32{{1, 1}}, [][]float32{{1, 1}}, 5},
	} {
		for _, workers := range []int{1, 2} {
			if _, _, _, err := invertForward(tc.fwdIdx, tc.fwdVal, tc.dims, workers); err == nil {
				t.Errorf("%s accepted at %d workers", tc.name, workers)
			}
		}
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
