package attribution

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"darklight/internal/features"
)

// TestStage2ScratchConcurrent: Match and Rescore draw their stage-2 scratch
// (candidate vocabulary, merge buffers, postings) from the matcher's
// pool. Eight goroutines walking the probes in different orders must get,
// bit for bit, what a sequential pass got — documents of very different
// sizes, empty ones and zero-norm probes included, so a buffer sized by
// one request is reused by a smaller and a larger one — and a result
// handed out early must still read the same after the scratch behind it
// has been reused many times over. Run under -race in CI.
func TestStage2ScratchConcurrent(t *testing.T) {
	known, probes := randomWorld(rand.New(rand.NewSource(1515)), 40)
	m, err := NewMatcher(known, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	type answer struct {
		match    MatchResult
		rescored []Scored
	}
	ask := func(p *Subject) answer {
		res := m.Match(p)
		return answer{match: res, rescored: m.Rescore(p, res.Candidates)}
	}
	want := make([]answer, len(probes))
	for i := range probes {
		want[i] = ask(&probes[i])
		if len(want[i].rescored) == 0 {
			t.Fatalf("probe %d: empty rescore", i)
		}
	}

	const goroutines, rounds = 8, 3
	first := make([][]answer, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			order := rand.New(rand.NewSource(int64(g))).Perm(len(probes))
			first[g] = make([]answer, len(probes))
			for r := 0; r < rounds; r++ {
				for _, i := range order {
					got := ask(&probes[i])
					if !reflect.DeepEqual(got, want[i]) {
						t.Errorf("goroutine %d round %d probe %d:\n got %+v\nwant %+v", g, r, i, got, want[i])
						return
					}
					if r == 0 {
						first[g][i] = got
					}
				}
			}
		}(g)
	}
	wg.Wait()
	for g := range first {
		for i := range first[g] {
			if first[g][i].rescored != nil && !reflect.DeepEqual(first[g][i], want[i]) {
				t.Errorf("goroutine %d probe %d: result changed after it was returned", g, i)
			}
		}
	}
}

// TestRescoreAllocationCeiling keeps the per-request garbage from creeping
// back: a warm Rescore allocates what extracting the
// unknown's document allocates (stage 2 must read the text) plus a fixed
// handful — the returned slice, the sort of k scores and the unknown's own
// frequency and activity blocks — and nothing per candidate (their dense
// blocks are the index's) or that grows with the documents. Measured: 6
// beyond the extraction at k = 10, where re-deriving every candidate's
// blocks made it 26 and the code before the pooled scratch allocated 84.
func TestRescoreAllocationCeiling(t *testing.T) {
	authors := makeAuthors(t, 20, 1500)
	known, probes := split(authors)
	m, err := NewMatcher(known, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	probe := &probes[3]
	cands := m.Rank(probe, 10)
	// A scratch of the test's own, as a MatchAll worker holds one: under
	// -race sync.Pool drops buffers at random, which is not what is measured.
	var buf matchBuffers
	m.rescoreDoc(nil, probe, cands, &buf) // fill the document cache and size the scratch
	extract := testing.AllocsPerRun(20, func() {
		features.Extract(probe.Text, m.opts.Final)
	})
	rescore := testing.AllocsPerRun(20, func() {
		m.rescoreDoc(nil, probe, cands, &buf)
	})
	const ceiling = 8
	if beyond := rescore - extract; beyond > ceiling {
		t.Errorf("warm Rescore allocates %.0f beyond the %.0f of extracting its document, ceiling %d", beyond, extract, ceiling)
	}

	// What the warm scratch keeps is linear in the gram entries the rescore
	// read — the candidates' and the unknown's — and not in, say, the known
	// set or the square of anything: peak RSS holds one per pooled buffer.
	// Per entry it keeps two 16-byte merge buffers, two 4-byte landing
	// positions and a 4-byte rank, a 12-byte posting, and per selected gram
	// (no more than the entries) a 4-byte run end and an 8-byte weight of the
	// unknown's: 68 bytes at most. Measured: 44, where the materialised
	// vectors kept 35.
	entries := 0
	for _, d := range append(buf.docs, features.Extract(probe.Text, m.opts.Final)) {
		entries += len(d.WordGrams) + len(d.CharGrams)
	}
	const bytesPerEntry = 68
	if kept := retainedBytes(reflect.ValueOf(buf)); kept > bytesPerEntry*entries {
		t.Errorf("warm stage-2 scratch keeps %d bytes for %d gram entries, ceiling %d per entry", kept, entries, bytesPerEntry)
	}
}

// retainedBytes sums the backing arrays v holds by value: each slice's
// capacity times its element size, through structs and arrays. Pointers are
// not followed — a matchBuffers points only at documents the matcher's
// cache owns — and no scratch slice holds slices.
func retainedBytes(v reflect.Value) int {
	switch v.Kind() {
	case reflect.Slice:
		return v.Cap() * int(v.Type().Elem().Size())
	case reflect.Struct:
		n := 0
		for i := range v.NumField() {
			n += retainedBytes(v.Field(i))
		}
		return n
	case reflect.Array:
		n := 0
		for i := range v.Len() {
			n += retainedBytes(v.Index(i))
		}
		return n
	}
	return 0
}

// BenchmarkRescoreKernel times stage 2 alone, the way Match runs it: the
// unknown's document already extracted (Match shares stage 1's), every
// candidate's document in the matcher's cache and the scratch warm, k = 10
// over 1,500-word documents.
func BenchmarkRescoreKernel(b *testing.B) {
	known, probes := split(makeAuthors(b, 20, 1500))
	m, err := NewMatcher(known, testOptions())
	if err != nil {
		b.Fatal(err)
	}
	var buf matchBuffers
	udocs := make([]*features.SortedDoc, len(probes))
	cands := make([][]Scored, len(probes))
	for i := range probes {
		udocs[i] = features.Extract(probes[i].Text, m.opts.Final)
		cands[i] = m.Rank(&probes[i], 10)
		m.rescoreDoc(udocs[i], &probes[i], cands[i], &buf)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(probes)
		m.rescoreDoc(udocs[j], &probes[j], cands[j], &buf)
	}
}
