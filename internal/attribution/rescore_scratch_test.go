package attribution

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"darklight/internal/features"
)

// TestStage2ScratchConcurrent: Match and Rescore draw their stage-2 scratch
// (candidate vocabulary, tile counters, postings) from the matcher's
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

// TestStage2FirstUseConcurrent: a fresh matcher's first rescores read the
// documents it holds, numbered before it serves, and set nothing up. Eight
// goroutines released at once on a fresh matcher, each rescoring every probe
// through shared prepared queries and through one-shot Rescore in an order of
// its own, must all get the bits a sequential pass over another matcher got,
// incremental or not. Every held document and every prepared query must
// carry the numbers the vocabulary's dictionary gives its extraction. Run
// under -race in CI.
func TestStage2FirstUseConcurrent(t *testing.T) {
	known, probes := randomWorld(rand.New(rand.NewSource(1616)), 40)
	incremental := testOptions()
	incremental.Incremental = true
	for oi, opts := range []Options{testOptions(), incremental} {
		seq, err := NewMatcher(known, opts)
		if err != nil {
			t.Fatal(err)
		}
		cands := make([][]Scored, len(probes))
		want := make([][2][]Scored, len(probes))
		for i := range probes {
			cands[i] = seq.Rank(&probes[i], 10)
			want[i] = [2][]Scored{seq.Prepare(&probes[i]).Rescore(cands[i]), seq.Rescore(&probes[i], cands[i])}
		}

		m, err := NewMatcher(known, opts)
		if err != nil {
			t.Fatal(err)
		}
		qs := make([]*Query, len(probes))
		for i := range probes {
			qs[i] = m.Prepare(&probes[i])
		}
		const goroutines = 8
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := range goroutines {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				for _, i := range rand.New(rand.NewSource(int64(g))).Perm(len(probes)) {
					got := [2][]Scored{qs[i].Rescore(cands[i]), m.Rescore(&probes[i], cands[i])}
					if !reflect.DeepEqual(got, want[i]) {
						t.Errorf("options %d goroutine %d probe %d:\n got %+v\nwant %+v", oi, g, i, got, want[i])
						return
					}
				}
			}(g)
		}
		close(start)
		wg.Wait()
		if t.Failed() {
			return
		}
		dict := m.vocab.Dictionary()
		for i, q := range qs {
			if !reflect.DeepEqual(&q.doc, dict.Number(features.Extract(probes[i].Text, opts.Final))) {
				t.Fatalf("options %d: query %d holds other numbers than the dictionary gives its document", oi, i)
			}
		}
		for i, d := range m.docs {
			if !reflect.DeepEqual(d, dict.Number(features.Extract(known[i].Text, opts.Final))) {
				t.Fatalf("options %d: candidate %d holds other numbers than its document's", oi, i)
			}
		}
	}
}

// TestRescoreAllocationCeiling keeps the per-request garbage from creeping
// back: a warm Rescore allocates what extracting the
// unknown's document allocates (stage 2 must read the text) plus a fixed
// handful — the returned slice, the sort of k scores and the unknown's own
// frequency and activity blocks — and nothing per candidate (their dense
// blocks are the index's) or that grows with the documents, and in
// particular no stage-1 gram vector. Measured: 6 beyond the extraction at
// k = 10, where re-deriving every candidate's blocks made it 26 and the
// code before the pooled scratch allocated 84. A rescore of a prepared
// query, whose document and dense blocks stage 2 shares, allocates only
// the returned slice and the sort (measured 4).
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
	m.rescoreSubject(probe, cands, &buf) // size the scratch
	extract := testing.AllocsPerRun(20, func() {
		features.Extract(probe.Text, m.opts.Final)
	})
	rescore := testing.AllocsPerRun(20, func() {
		m.rescoreSubject(probe, cands, &buf)
	})
	const ceiling = 8
	if beyond := rescore - extract; beyond > ceiling {
		t.Errorf("warm Rescore allocates %.0f beyond the %.0f of extracting its document, ceiling %d", beyond, extract, ceiling)
	}
	q := m.prepare(probe, &buf)
	prepared := testing.AllocsPerRun(20, func() {
		q.rescore(cands, &buf)
	})
	if prepared > ceiling {
		t.Errorf("warm rescore of a prepared query allocates %.0f, ceiling %d", prepared, ceiling)
	}

	// What the warm scratch keeps is linear in the gram entries the rescore
	// read — the candidates' and the unknown's — and not in, say, the known
	// set or the square of anything: peak RSS holds one per pooled buffer.
	// Per entry it keeps a 16-byte aggregate counter and a 4-byte rank (one
	// each per gram the candidates hold, no more than their entries), an
	// 8-byte tile record (one per tile holding a gram, no more either), a
	// 12-byte posting, the one-shot unknown's 4-byte number, and per selected
	// gram a 4-byte run end and an 8-byte weight of the unknown's: 56 bytes
	// at most, beside the one tile's counters, slots and occupancy bits,
	// 48.5 KB whatever the dictionary — under a byte an entry here, where the
	// rescore reads ~83k entries. Measured: 24, where the id merge kept 46
	// and the materialised vectors 35.
	u := features.Extract(probe.Text, m.opts.Final)
	entries := u.Entries()
	for _, d := range buf.docs {
		entries += d.Entries()
	}
	const bytesPerEntry = 68
	if kept := retainedBytes(reflect.ValueOf(buf)); kept > bytesPerEntry*entries {
		t.Errorf("warm stage-2 scratch keeps %d bytes for %d gram entries, ceiling %d per entry", kept, entries, bytesPerEntry)
	}
}

// retainedBytes sums the backing arrays v holds by value: each slice's
// capacity times its element size, through structs and arrays. Pointers are
// not followed — a matchBuffers points only at documents the matcher
// holds — and a scratch slice of slices is cleared after every rescore.
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
// unknown's document already extracted (Match shares stage 1's), k = 10
// over 1,500-word documents, every candidate's document retained by the
// index. warm has every candidate's document and the query numbered and the
// scratch warm. first-use rescores each probe once on a fresh generation —
// a matcher loaded from the same state, its queries prepared untimed — so
// it includes the cold memory of a generation's first rescores; nothing is
// numbered at query time.
func BenchmarkRescoreKernel(b *testing.B) {
	known, probes := split(makeAuthors(b, 20, 1500))
	opts := testOptions()
	opts.Incremental = true
	m, err := NewMatcher(known, opts)
	if err != nil {
		b.Fatal(err)
	}
	st, err := m.State()
	if err != nil {
		b.Fatal(err)
	}
	var buf matchBuffers
	qs := make([]*Query, len(probes))
	cands := make([][]Scored, len(probes))
	for i := range probes {
		qs[i] = m.Prepare(&probes[i])
		cands[i], _ = qs[i].Rank(MatchOptions{K: 10})
		qs[i].rescore(cands[i], &buf)
	}
	b.Run("warm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			j := i % len(probes)
			qs[j].rescore(cands[j], &buf)
		}
	})
	b.Run("first-use", func(b *testing.B) {
		fresh := make([]*Query, len(probes))
		for i := 0; i < b.N; i++ {
			j := i % len(probes)
			if j == 0 {
				b.StopTimer()
				g, err := NewMatcherFromState(known, st)
				if err != nil {
					b.Fatal(err)
				}
				for p := range probes {
					fresh[p] = g.Prepare(&probes[p])
				}
				b.StartTimer()
			}
			fresh[j].rescore(cands[j], &buf)
		}
	})
}
