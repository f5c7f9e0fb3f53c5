package serve

// Concurrency correctness, meant to run under -race:
//
//   - TestConcurrentEquivalence: 64 goroutines issuing a mix of rank,
//     rescore, and match requests over a pipeline-generated world receive
//     responses byte-identical to what the batch path the darklight facade
//     runs (BuildSubjects + NewMatcherContext + MatchAll) computes
//     sequentially.
//   - TestReloadMidBurstAtomic: a SIGHUP-style Reload in the middle of a
//     request burst never produces a torn response — every body is exactly
//     the v1 answer or exactly the v2 answer, and post-burst requests see v2.

import (
	"context"
	"encoding/json"
	"sync"
	"sync/atomic"
	"testing"

	"darklight"
	"darklight/internal/attribution"
	"darklight/internal/obs"
)

// encodeBody marshals v exactly as writeJSON does: compact + trailing newline.
func encodeBody(t testing.TB, v any) string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal expected body: %v", err)
	}
	return string(data) + "\n"
}

func TestConcurrentEquivalence(t *testing.T) {
	ctx := context.Background()
	world, err := darklight.GenerateWorld(darklight.WorldConfig{Seed: 5, Scale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	pipe := darklight.NewPipeline()
	pipe.PolishContext(ctx, world.DM)
	mainDS, aeDS := pipe.SplitAlterEgos(pipe.Refine(world.DM))
	if aeDS.Len() < 2 {
		t.Skip("tiny world produced too few alter egos")
	}
	if aeDS.Len() > 12 {
		trimmed := *aeDS
		trimmed.Aliases = trimmed.Aliases[:12]
		aeDS = &trimmed
	}

	// Sequential ground truth through the calls Pipeline.LinkDetailed makes,
	// on 400-word documents: the paper's 1,500 would nearly double the
	// -race run for no extra coverage.
	subjOpts := pipe.SubjectOptions()
	subjOpts.WordBudget = 400
	known, err := attribution.BuildSubjects(mainDS, subjOpts)
	if err != nil {
		t.Fatal(err)
	}
	query, err := attribution.BuildSubjects(aeDS, subjOpts)
	if err != nil {
		t.Fatal(err)
	}
	m, err := attribution.NewMatcherContext(ctx, known, pipe.MatcherOptions())
	if err != nil {
		t.Fatal(err)
	}
	results, err := m.MatchAll(ctx, query)
	if err != nil {
		t.Fatal(err)
	}
	threshold := pipe.MatcherOptions().Threshold
	wantMatch := make(map[string]string, len(results))
	wantRank := make(map[string]string, len(results))
	wantRescore := make(map[string]string, len(results))
	rescoreReq := make(map[string]string, len(results))
	var names []string
	for i := range results {
		res := &results[i]
		names = append(names, res.Unknown)
		wantMatch[res.Unknown] = encodeBody(t, matchResponse(1, res, threshold))
		wantRank[res.Unknown] = encodeBody(t, &RankResponse{
			IndexVersion: 1, Subject: res.Unknown, Candidates: candidates(res.Candidates),
		})
		wantRescore[res.Unknown] = encodeBody(t, &RescoreResponse{
			IndexVersion: 1, Subject: res.Unknown, Rescored: candidates(res.Rescored),
		})
		req := RescoreRequest{Subject: SubjectSpec{Alias: res.Unknown}}
		for _, c := range res.Candidates {
			req.Candidates = append(req.Candidates, c.Name)
		}
		rescoreReq[res.Unknown] = encodeBody(t, &req)
	}

	svc, err := New(ctx, Config{
		Loader:   func(context.Context) (*Corpus, error) { return &Corpus{Known: known, Query: query}, nil },
		Options:  pipe.MatcherOptions(),
		Subjects: subjOpts,
		APIKeys:  []string{"test-key"},
		Clock:    newFakeClock(),
		Registry: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	h := svc.Handler()

	const goroutines = 64
	const perG = 6
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				name := names[(g*perG+i)%len(names)]
				var path, body, want string
				switch (g + i) % 3 {
				case 0:
					path, want = "/v1/rank", wantRank[name]
					body = `{"subject":{"alias":"` + name + `"}}`
				case 1:
					path, want = "/v1/rescore", wantRescore[name]
					body = rescoreReq[name]
				default:
					path, want = "/v1/match", wantMatch[name]
					body = `{"subject":{"alias":"` + name + `"}}`
				}
				rec := do(h, "POST", path, "test-key", []byte(body))
				if rec.Code != 200 {
					errs <- path + " " + name + ": status " + rec.Body.String()
					return
				}
				if got := rec.Body.String(); got != want {
					errs <- path + " " + name + ": served body differs from sequential facade\n got: " + got + "want: " + want
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

func TestReloadMidBurstAtomic(t *testing.T) {
	ctx := context.Background()

	// Corpus A: the fixture. Corpus B: the same six known names wearing
	// shifted styles, so every query's answer changes across the reload.
	corpusA := testCorpus(t)
	corpusB := shiftedCorpus(t)

	// Expected bodies per version, computed sequentially with the same
	// matcher construction the service uses.
	expect := func(c *Corpus, version int) map[string]string {
		m, err := attribution.NewMatcherContext(ctx, c.Known, testOptions())
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[string]string, len(c.Query))
		for i := range c.Query {
			res := m.Match(&c.Query[i])
			out[c.Query[i].Name] = encodeBody(t, matchResponse(version, &res, testOptions().Threshold))
		}
		return out
	}
	wantV1 := expect(corpusA, 1)
	wantV2 := expect(corpusB, 2)
	for name, v1 := range wantV1 {
		if v1 == wantV2[name] {
			t.Fatalf("fixture defect: %s answers identically on both corpora; reload would be unobservable", name)
		}
	}

	// The loader serves A on the initial load and B from then on.
	var loads atomic.Int32
	svc, err := New(ctx, Config{
		Loader: func(context.Context) (*Corpus, error) {
			if loads.Add(1) == 1 {
				return corpusA, nil
			}
			return corpusB, nil
		},
		Options:  testOptions(),
		Subjects: testSubjectOptions(),
		Clock:    newFakeClock(),
		Registry: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	h := svc.Handler()

	queryNames := []string{"q_alice", "q_dave"}
	const goroutines = 32
	const perG = 8
	var served atomic.Int32
	var reloadOnce sync.Once
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if served.Add(1) == goroutines*perG/2 {
					reloadOnce.Do(func() {
						if err := svc.Reload(ctx); err != nil {
							errs <- "reload: " + err.Error()
						}
					})
				}
				name := queryNames[(g+i)%len(queryNames)]
				rec := do(h, "POST", "/v1/match", "", []byte(`{"subject":{"alias":"`+name+`"}}`))
				if rec.Code != 200 {
					errs <- name + ": status " + rec.Body.String()
					return
				}
				got := rec.Body.String()
				if got != wantV1[name] && got != wantV2[name] {
					errs <- name + ": torn response (matches neither index version):\n" + got
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}

	if v := svc.Version(); v != 2 {
		t.Fatalf("post-burst version = %d, want 2", v)
	}
	for _, name := range queryNames {
		rec := do(h, "POST", "/v1/match", "", []byte(`{"subject":{"alias":"`+name+`"}}`))
		if got := rec.Body.String(); got != wantV2[name] {
			t.Errorf("post-reload %s still serving stale index:\n got: %s\nwant: %s", name, got, wantV2[name])
		}
	}
}

// shiftedCorpus is testCorpus with every known alias's style rotated by
// one variant, changing every stage-1 ordering.
func shiftedCorpus(t testing.TB) *Corpus {
	t.Helper()
	c := testCorpus(t)
	known := buildKnown(t, 1)
	c.Known = known
	return c
}

// buildKnown constructs the six known subjects with styles offset by shift.
func buildKnown(t testing.TB, shift int) []attribution.Subject {
	t.Helper()
	ds := newKnownDataset(shift)
	ks, err := attribution.BuildSubjects(ds, testSubjectOptions())
	if err != nil {
		t.Fatalf("build shifted known subjects: %v", err)
	}
	return ks
}
