package attribution

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"darklight/internal/features"
	"darklight/internal/sparse"
)

// referenceTopK is the historical sort-based selection (full index
// permutation, O(n log n)) that topKScores replaced. It is kept here as the
// executable specification: the heap must reproduce it bit for bit,
// including the name tiebreak.
func referenceTopK(known []Subject, scores []float64, k int) []Scored {
	if k > len(scores) {
		k = len(scores)
	}
	if k < 0 {
		k = 0
	}
	idx := make([]int, len(scores))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		if scores[idx[a]] != scores[idx[b]] {
			return scores[idx[a]] > scores[idx[b]]
		}
		return known[idx[a]].Name < known[idx[b]].Name
	})
	out := make([]Scored, 0, k)
	for _, i := range idx[:k] {
		out = append(out, Scored{Name: known[i].Name, Score: scores[i]})
	}
	return out
}

// TestTopKMatchesReferenceSort drives the heap selection against the sort
// reference on randomized score vectors. Scores are drawn from a tiny
// discrete set so ties — where only the name tiebreak separates candidates
// — occur constantly, and k sweeps the degenerate cases (0, 1, n, > n).
func TestTopKMatchesReferenceSort(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 300; trial++ {
		n := r.Intn(60)
		known := make([]Subject, n)
		scores := make([]float64, n)
		for i := range known {
			// Duplicate names across some entries to exercise equal
			// (score, name) pairs too.
			known[i] = Subject{Name: fmt.Sprintf("s%02d", r.Intn(n+1))}
			scores[i] = float64(r.Intn(5)) / 4
			if r.Intn(4) == 0 {
				scores[i] = 0 // heavy mass on the zero-score tie
			}
		}
		for _, k := range []int{0, 1, 2, 10, n - 1, n, n + 7} {
			got, evictions := topKScores(known, scores, k, nil)
			want := referenceTopK(known, scores, k)
			// Every push either grows the heap or (at most) evicts once, so
			// evictions can never exceed the candidates beyond the first k.
			if max := n - len(want); evictions > max || evictions < 0 {
				t.Fatalf("trial %d k=%d: evictions %d out of range [0, %d]", trial, k, evictions, max)
			}
			if len(got) != len(want) {
				t.Fatalf("trial %d k=%d: len %d, want %d", trial, k, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("trial %d k=%d pos %d: got %+v, want %+v\nfull got  %v\nfull want %v",
						trial, k, i, got[i], want[i], got, want)
				}
			}
		}
	}
}

// TestTopKScratchReuse runs many selections through one shared scratch
// buffer (the MatchAll worker pattern) and checks results stay identical to
// fresh-buffer selections — a dirty heap must never leak across queries.
func TestTopKScratchReuse(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	var scratch []heapEntry
	for trial := 0; trial < 100; trial++ {
		n := 1 + r.Intn(40)
		known := make([]Subject, n)
		scores := make([]float64, n)
		for i := range known {
			known[i] = Subject{Name: fmt.Sprintf("name%03d", r.Intn(50))}
			scores[i] = r.Float64()
		}
		k := 1 + r.Intn(n+3)
		got, gotEv := topKScores(known, scores, k, &scratch)
		want, wantEv := topKScores(known, scores, k, nil)
		if !reflect.DeepEqual(got, want) || gotEv != wantEv {
			t.Fatalf("trial %d: scratch-reuse selection diverged:\ngot  %v (ev %d)\nwant %v (ev %d)", trial, got, gotEv, want, wantEv)
		}
	}
}

// referenceRescore is the pre-hoist Rescore: byName rebuilt per call,
// candidate documents re-extracted per call. The production path must
// return identical output from its matcher-lifetime caches.
func referenceRescore(m *Matcher, unknown *Subject, candidates []Scored) []Scored {
	byName := make(map[string]*Subject, len(m.known))
	for i := range m.known {
		byName[m.known[i].Name] = &m.known[i]
	}
	subjects := make([]*Subject, 0, len(candidates))
	for _, c := range candidates {
		if s, ok := byName[c.Name]; ok {
			subjects = append(subjects, s)
		}
	}
	vb := features.NewVocabBuilder(m.opts.Final)
	for _, s := range subjects {
		vb.AddSorted(features.Extract(s.Text, m.opts.Final))
	}
	vocab, err := vb.Build()
	if err != nil {
		panic(err) // a few added documents: the counters cannot refuse them
	}

	w := m.opts.weights()
	ub := buildBlocks(unknown, vocab, m.opts.Final)
	out := make([]Scored, 0, len(subjects))
	for _, s := range subjects {
		cb := buildBlocks(s, vocab, m.opts.Final)
		out = append(out, Scored{Name: s.Name, Score: similarity(&ub, &cb, w)})
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Score != out[b].Score {
			return out[a].Score > out[b].Score
		}
		return out[a].Name < out[b].Name
	})
	return out
}

// similarity is the cosine of the two concatenated weighted vectors: the
// score stage 2 computed from materialised blocks before its gram dots came
// from one sweep over the candidates' postings.
func similarity(u, v *blocks, w Weights) float64 {
	nu, nv := u.norm(w), v.norm(w)
	if nu == 0 || nv == 0 {
		return 0
	}
	dot := sparse.Dot(u.grams, v.grams) +
		w.Freq*w.Freq*denseDot(u.freq, v.freq) +
		w.Activity*w.Activity*denseDot(u.act, v.act)
	return dot / (nu * nv)
}

// referenceKernel is the stage-2 kernel rescoreDoc ran before
// CandidateVocab.Score: the unknown's gram vector and then each candidate's
// merged out of the candidate vocabulary, radix-sorted, normalised and
// scored by similarity. The vocabulary is a VocabBuilder's over the same
// documents, which TestCandidateVocabMatchesVocabBuilder holds the per-query
// one to bit for bit; the rest is the old body.
func referenceKernel(m *Matcher, udoc *features.SortedDoc, unknown *Subject, candidates []Scored) []Scored {
	var idxs []int
	var docs []*features.SortedDoc
	for _, c := range candidates {
		if i, ok := m.byName[c.Name]; ok {
			idxs = append(idxs, i)
			docs = append(docs, m.finalDocs.Get(i))
		}
	}
	vb := features.NewVocabBuilder(m.opts.Final)
	for _, d := range docs {
		vb.AddSorted(d)
	}
	vocab, err := vb.Build()
	if err != nil {
		panic(err) // a few added documents: the counters cannot refuse them
	}

	w := m.opts.weights()
	if udoc == nil {
		udoc = features.Extract(unknown.Text, m.opts.Final)
	}
	var uvec, cvec, scratch sparse.Vector
	vocab.VectorizeGramsInto(&uvec, &scratch, udoc)
	ub := blocksOf(uvec, udoc, unknown)
	out := make([]Scored, 0, len(idxs))
	for j, i := range idxs {
		s := &m.known[i]
		vocab.VectorizeGramsInto(&cvec, &scratch, docs[j])
		cb := blocks{grams: cvec.Normalize(), freq: m.freqs[i], act: m.acts[i]}
		if !m.sameExtract {
			cb.freq = normalizedFreq(docs[j].Freq)
		}
		out = append(out, Scored{Name: s.Name, Score: similarity(&ub, &cb, w)})
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Score != out[b].Score {
			return out[a].Score > out[b].Score
		}
		return out[a].Name < out[b].Name
	})
	return out
}

// assertSameScores fails unless got and want name the same candidates in the
// same order with the same score bits.
func assertSameScores(t *testing.T, label string, got, want []Scored) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d scores, reference %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].Name != want[i].Name || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			t.Fatalf("%s: position %d is %s %x, reference %s %x\ngot  %v\nwant %v", label, i,
				got[i].Name, math.Float64bits(got[i].Score), want[i].Name, math.Float64bits(want[i].Score), got, want)
		}
	}
}

// TestRescoreKernelMatchesReference holds stage 2 to referenceKernel bit
// for bit where the 300-word worlds cannot reach: 1,500-word halves at k 1,
// 10 and 40, under the paper's budgets and under budgets of 64 word and 128
// char grams, where the cut binds and ties are broken inside it; with the
// final config's frequency block off too, so the stages do not share an
// extraction and Match re-extracts. The unknowns include an empty one, one
// with no selected gram, randomWorld's empty and zero-norm probes, and two
// candidates with one text, where every gram they share has IDF 0 and both
// gram blocks are present with norm 0.
func TestRescoreKernelMatchesReference(t *testing.T) {
	known, probes := split(makeAuthors(t, 44, 1500))
	twin := known[0]
	twin.Name += "-twin"
	known = append(known, twin)
	probes = append(probes[:3],
		Subject{Name: "empty"},
		Subject{Name: "foreign", Text: "ÿŷÿŷÿŷ"},
		known[7])
	rwKnown, rwProbes := randomWorld(rand.New(rand.NewSource(1500)), 44)
	worlds := []struct {
		name          string
		known, probes []Subject
	}{{"authors", known, probes}, {"random", rwKnown, rwProbes}}

	paper := testOptions()
	binding := testOptions()
	binding.Final.MaxWordGrams, binding.Final.MaxCharGrams = 64, 128
	paperNoFreq, bindingNoFreq := paper, binding
	paperNoFreq.Final.IncludeFreq, bindingNoFreq.Final.IncludeFreq = false, false
	for _, wd := range worlds {
		for oi, opts := range []Options{paper, binding, paperNoFreq, bindingNoFreq} {
			m, err := NewMatcher(wd.known, opts)
			if err != nil {
				t.Fatal(err)
			}
			var buf matchBuffers
			for _, k := range []int{1, 10, 40} {
				for p := range wd.probes {
					u := &wd.probes[p]
					label := fmt.Sprintf("%s options %d k %d unknown %s", wd.name, oi, k, u.Name)
					cands := m.Rank(u, k)
					want := referenceKernel(m, nil, u, cands)
					assertSameScores(t, label, m.rescoreDoc(nil, u, cands, &buf), want)
					if k == 10 {
						res := m.MatchWith(u, MatchOptions{K: k})
						assertSameScores(t, label+" (Match)", res.Rescored, want)
					}
				}
			}
			if wd.name != "authors" {
				continue
			}
			// The cases are what they claim to be.
			foreign := features.Extract("ÿŷÿŷÿŷ", opts.Final)
			m.rescoreDoc(foreign, &probes[4], m.Rank(&probes[4], 10), &buf)
			if _, _, uHas := buf.vocab.Score(opts.Final, buf.docs, foreign); uHas {
				t.Fatalf("options %d: the foreign unknown holds a selected gram", oi)
			}
			pair := []Scored{{Name: known[0].Name}, {Name: twin.Name}}
			want := referenceKernel(m, nil, &probes[0], pair)
			assertSameScores(t, fmt.Sprintf("options %d twins", oi), m.rescoreDoc(nil, &probes[0], pair, &buf), want)
			dots, has, _ := buf.vocab.Score(opts.Final, buf.docs, features.Extract(probes[0].Text, opts.Final))
			if !has[0] || !has[1] || dots[0] != 0 || dots[1] != 0 {
				t.Fatalf("options %d: twins score gram dots %v presence %v, want 0 and present", oi, dots, has)
			}
		}
	}
}

// TestRescoreUnchangedByHoistedIndex pins the byName/doc-cache hoist and
// the reuse of the index's dense blocks: Rescore must produce exactly the
// scores the per-call implementation did — which re-extracts every
// candidate and re-derives its frequency and activity blocks — on first
// call (cold cache) and on repeat calls (warm cache), including candidates
// that are not in the known set at all, and also when the final config
// extracts differently from the reduction config, so the index's frequency
// blocks are not stage 2's. An incremental matcher whose stages share an
// extraction starts with the cache full of the documents it retains — a
// first-touch Rescore extracts nothing — and must score the same.
func TestRescoreUnchangedByHoistedIndex(t *testing.T) {
	authors := makeAuthors(t, 12, 300)
	known, probes := split(authors)
	other := testOptions()
	other.Final.IncludeFreq = false
	incremental, incrementalOther := testOptions(), other
	incremental.Incremental, incrementalOther.Incremental = true, true
	for _, opts := range []Options{testOptions(), other, incremental, incrementalOther} {
		m, err := NewMatcher(known, opts)
		if err != nil {
			t.Fatal(err)
		}
		for i := range known {
			seeded := opts.Incremental && m.sameExtract
			if m.finalDocs.Cached(i) != seeded {
				t.Fatalf("incremental %v sameExtract %v: document %d cached = %v before any Rescore", opts.Incremental, m.sameExtract, i, !seeded)
			}
			if seeded && m.finalDocs.Get(i) != m.docs[i] {
				t.Fatalf("document %d: the stage-2 cache holds another copy than the matcher retains", i)
			}
		}
		for round := 0; round < 2; round++ {
			for p := range probes[:4] {
				cands := m.Rank(&probes[p], 6)
				// Inject an unknown name: both paths must skip it.
				cands = append(cands, Scored{Name: "no-such-alias", Score: 0.9})
				got := m.Rescore(&probes[p], cands)
				want := referenceRescore(m, &probes[p], cands)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("sameExtract %v round %d probe %d: Rescore diverged from reference:\ngot  %v\nwant %v",
						m.sameExtract, round, p, got, want)
				}
			}
		}
	}
}

// TestMatchSharedExtractionEquivalence checks the Match fast path (one
// extraction shared by both stages) against the public two-call
// composition, which extracts separately per stage.
func TestMatchSharedExtractionEquivalence(t *testing.T) {
	authors := makeAuthors(t, 10, 300)
	known, probes := split(authors)
	m, err := NewMatcher(known, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !m.sameExtract {
		t.Fatal("paper configs must share extraction (budgets differ, nothing else)")
	}
	for p := range probes {
		got := m.Match(&probes[p])
		wantCands := m.Rank(&probes[p], m.opts.K)
		wantRescored := m.Rescore(&probes[p], wantCands)
		if !reflect.DeepEqual(got.Candidates, wantCands) {
			t.Fatalf("probe %d: Match candidates diverge from Rank", p)
		}
		if !reflect.DeepEqual(got.Rescored, wantRescored) {
			t.Fatalf("probe %d: Match rescoring diverges from Rescore", p)
		}
	}

	// And when the configs do NOT share extraction, Match must fall back to
	// a per-stage extraction and still agree with the composition.
	opts := testOptions()
	opts.Final.Lemmatize = false
	m2, err := NewMatcher(known, opts)
	if err != nil {
		t.Fatal(err)
	}
	if m2.sameExtract {
		t.Fatal("lemmatisation toggle must break extraction sharing")
	}
	got := m2.Match(&probes[0])
	want := m2.Rescore(&probes[0], m2.Rank(&probes[0], m2.opts.K))
	if !reflect.DeepEqual(got.Rescored, want) {
		t.Fatal("non-shared-extraction Match diverges from Rank+Rescore composition")
	}
}

// TestMatchAllWorkerCountInvariant runs the same workload with Workers=1
// and Workers=8 and requires byte-identical result slices — scoring must
// not depend on scheduling, buffer reuse, or cache warm-up order.
func TestMatchAllWorkerCountInvariant(t *testing.T) {
	authors := makeAuthors(t, 14, 300)
	known, probes := split(authors)

	run := func(workers int) []MatchResult {
		opts := DefaultOptions()
		opts.Workers = workers
		m, err := NewMatcher(known, opts)
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.MatchAll(context.Background(), probes)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial := run(1)
	parallel := run(8)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("MatchAll results depend on worker count:\nworkers=1 %+v\nworkers=8 %+v", serial, parallel)
	}
	// The textual form must match too ("byte-identical"): DeepEqual and
	// formatting agree unless a NaN sneaks in, which this also rejects.
	if fmt.Sprintf("%+v", serial) != fmt.Sprintf("%+v", parallel) {
		t.Fatal("MatchAll textual output differs between worker counts")
	}
}
