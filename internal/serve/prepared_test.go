package serve

// Prepared by-alias queries (run under -race): a query-corpus alias is
// prepared on its first touch in a generation and shared from then on.
//
//   - TestReloadPreparesEveryAliasAfresh: after a Fold that adds a known
//     subject (every IDF moves), the by-alias answers are the new matcher's,
//     not those of a query prepared in the previous generation.
//   - TestReloadCarriesExtractions: a reload whose query texts and
//     reduction config extract alike carries the query subjects'
//     extractions into the new generation, whose first touches prepare
//     from them and answer as the new matcher; another text or another
//     extraction config starts with none.
//   - TestInlineSubjectsAreNeverPrepared: an inline rank, rescore or match
//     fills no slot, even under a query alias's name.
//   - TestConcurrentFirstTouch: 64 first touches of one alias at once all
//     answer with the one query the slot publishes.

import (
	"context"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"darklight/internal/attribution"
	"darklight/internal/features"
	"darklight/internal/forum"
)

// prepared is Service.prepare reporting only whether this call paid a
// preparation, from an extraction or not.
func (s *Service) prepared(st *state, i int) (q *attribution.Query, built bool) {
	q, how := s.prepare(st, i)
	return q, how != preparedCached
}

// aliasRequest is one by-alias request and the key of its expected body.
type aliasRequest struct {
	key, path, body string
}

// aliasRequests asks every endpoint about name: rank at k 3, rescore of
// alice and dave, and match.
func aliasRequests(name string) []aliasRequest {
	subject := `{"subject":{"alias":"` + name + `"}`
	return []aliasRequest{
		{"rank " + name, "/v1/rank", subject + `,"k":3}`},
		{"rescore " + name, "/v1/rescore", subject + `,"candidates":["alice","dave"]}`},
		{"match " + name, "/v1/match", subject + `}`},
	}
}

// libraryBodies is what the library answers aliasRequests on m at version,
// for every query subject, through the one-shot entry points that prepare
// the subject afresh on every call.
func libraryBodies(t *testing.T, m *attribution.Matcher, query []attribution.Subject, version int) map[string]string {
	t.Helper()
	out := make(map[string]string, 3*len(query))
	for i := range query {
		q := &query[i]
		out["rank "+q.Name] = encodeBody(t, &RankResponse{
			IndexVersion: version, Subject: q.Name, Candidates: candidates(m.Rank(q, 3)),
		})
		out["rescore "+q.Name] = encodeBody(t, &RescoreResponse{
			IndexVersion: version, Subject: q.Name,
			Rescored: candidates(m.Rescore(q, []attribution.Scored{{Name: "alice"}, {Name: "dave"}})),
		})
		res := m.Match(q)
		out["match "+q.Name] = encodeBody(t, matchResponse(version, &res, m.Options().Threshold))
	}
	return out
}

// checkAliasBodies sends aliasRequests for every query subject and fails
// on any body other than want's.
func checkAliasBodies(t *testing.T, h http.Handler, query []attribution.Subject, want map[string]string) {
	t.Helper()
	for i := range query {
		for _, r := range aliasRequests(query[i].Name) {
			rec := do(h, http.MethodPost, r.path, "test-key", []byte(r.body))
			if rec.Code != http.StatusOK || rec.Body.String() != want[r.key] {
				t.Fatalf("%s: %d\n got: %s\nwant: %s", r.key, rec.Code, rec.Body.String(), want[r.key])
			}
		}
	}
}

func TestReloadPreparesEveryAliasAfresh(t *testing.T) {
	ctx := context.Background()
	corpus := testCorpus(t)
	opts := testOptions()
	opts.Incremental = true
	m1, err := attribution.NewMatcher(corpus.Known, opts)
	if err != nil {
		t.Fatal(err)
	}
	batch := forum.NewDataset("batch", forum.PlatformSynthetic)
	batch.Add(styleAlias("grace", 0))
	newcomer, err := attribution.BuildSubjects(batch, testSubjectOptions())
	if err != nil {
		t.Fatal(err)
	}
	m2, err := m1.Fold(ctx, newcomer)
	if err != nil {
		t.Fatal(err)
	}
	var loads atomic.Int32
	svc := newTestService(t, newFakeClock(), func(c *Config) {
		c.Loader = func(context.Context) (*Corpus, error) {
			m := m1
			if loads.Add(1) > 1 {
				m = m2
			}
			return &Corpus{Known: m.Subjects(), Query: corpus.Query, Matcher: m}, nil
		}
	})
	h := svc.Handler()

	checkAliasBodies(t, h, corpus.Query, libraryBodies(t, m1, corpus.Query, 1))
	for i := range svc.state.Load().prepared {
		if svc.state.Load().prepared[i].Load() == nil {
			t.Fatalf("query subject %d was asked about but never prepared", i)
		}
	}
	if err := svc.Reload(ctx); err != nil {
		t.Fatal(err)
	}
	for i := range svc.state.Load().prepared {
		if svc.state.Load().prepared[i].Load() != nil {
			t.Fatalf("generation 2 starts with query subject %d already prepared", i)
		}
	}
	// A query prepared in generation 1 answers against generation 1's
	// matcher: the fixture must tell those answers from the right ones
	// wherever stage 1 runs. (A rescore of a fixed candidate list reads
	// nothing the fold changed, so there the two agree.)
	want := libraryBodies(t, m2, corpus.Query, 2)
	stale := libraryBodies(t, m1, corpus.Query, 2)
	for i := range corpus.Query {
		for _, key := range []string{"rank " + corpus.Query[i].Name, "match " + corpus.Query[i].Name} {
			if stale[key] == want[key] {
				t.Fatalf("fixture defect: %s answers alike before and after the fold", key)
			}
		}
	}
	checkAliasBodies(t, h, corpus.Query, want)
}

func TestReloadCarriesExtractions(t *testing.T) {
	ctx := context.Background()
	corpus := testCorpus(t)
	opts := testOptions()
	opts.Incremental = true
	m1, err := attribution.NewMatcher(corpus.Known, opts)
	if err != nil {
		t.Fatal(err)
	}
	batch := forum.NewDataset("batch", forum.PlatformSynthetic)
	batch.Add(styleAlias("grace", 0))
	newcomer, err := attribution.BuildSubjects(batch, testSubjectOptions())
	if err != nil {
		t.Fatal(err)
	}
	m2, err := m1.Fold(ctx, newcomer)
	if err != nil {
		t.Fatal(err)
	}
	// A matcher that extracts otherwise: no lemmatiser in either stage.
	unlemmatized := testOptions()
	unlemmatized.Reduction.Lemmatize, unlemmatized.Final.Lemmatize = false, false
	m3, err := attribution.NewMatcher(corpus.Known, unlemmatized)
	if err != nil {
		t.Fatal(err)
	}
	// The query corpus with q_dave writing in another style.
	query := forum.NewDataset("query", forum.PlatformSynthetic)
	query.Add(styleAlias("q_alice", 0))
	query.Add(styleAlias("q_dave", 4))
	rewritten, err := attribution.BuildSubjects(query, testSubjectOptions())
	if err != nil {
		t.Fatal(err)
	}
	gens := []struct {
		m       *attribution.Matcher
		query   []attribution.Subject
		carries bool
	}{
		{m1, corpus.Query, false},
		{m2, corpus.Query, true},
		{m2, rewritten, false}, // another text, the same extraction config
		{m3, rewritten, false}, // the same texts, another extraction config
	}
	var loads atomic.Int32
	svc := newTestService(t, newFakeClock(), func(c *Config) {
		c.Loader = func(context.Context) (*Corpus, error) {
			g := gens[loads.Add(1)-1]
			return &Corpus{Known: g.m.Subjects(), Query: g.query, Matcher: g.m}, nil
		}
	})
	h := svc.Handler()
	var kept []*features.PackedDoc // the previous generation's extractions
	for v, g := range gens {
		if v > 0 {
			if err := svc.Reload(ctx); err != nil {
				t.Fatal(err)
			}
		}
		st := svc.state.Load()
		for i := range st.extracted {
			x := st.extracted[i].Load()
			if g.carries && x != kept[i] {
				t.Fatalf("generation %d: query subject %d's extraction was not carried", v+1, i)
			}
			if !g.carries && x != nil {
				t.Fatalf("generation %d: query subject %d starts with an extraction", v+1, i)
			}
		}
		want := libraryBodies(t, g.m, g.query, v+1)
		if g.carries {
			// Every first touch prepares from the carried extraction.
			for i := range g.query {
				if _, how := svc.prepare(st, i); how != preparedCarried {
					t.Fatalf("generation %d: first touch of %s prepared %q", v+1, g.query[i].Name, how)
				}
			}
		}
		checkAliasBodies(t, h, g.query, want)
		kept = kept[:0]
		for i := range st.extracted {
			x := st.extracted[i].Load()
			if x == nil {
				t.Fatalf("generation %d: query subject %d was asked about but holds no extraction", v+1, i)
			}
			kept = append(kept, x)
		}
	}
}

func TestInlineSubjectsAreNeverPrepared(t *testing.T) {
	bigBodies := func(c *Config) { c.MaxBody = 1 << 16 }
	svc := newTestService(t, newFakeClock(), bigBodies)
	h := svc.Handler()
	st := svc.state.Load()
	corpus := testCorpus(t)
	want := libraryBodies(t, st.matcher, corpus.Query, 1)

	// An inline subject under a query alias's name, written in another
	// variant's style than the alias.
	spec := func(variant int) SubjectSpec {
		spec := SubjectSpec{Name: "q_alice"}
		for _, m := range styleAlias("q_alice", variant).Messages {
			spec.Messages = append(spec.Messages, MessageSpec{Body: m.Body, Time: m.PostedAt.Format(time.RFC3339)})
		}
		return spec
	}
	inline := func(variant int) []byte {
		return []byte(encodeBody(t, &RankRequest{Subject: spec(variant), K: 3}))
	}
	post := func(h http.Handler, path string, body []byte) string {
		t.Helper()
		rec := do(h, http.MethodPost, path, "test-key", body)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: %d %s", path, rec.Code, rec.Body.String())
		}
		return rec.Body.String()
	}
	rank := func(h http.Handler, body []byte) string {
		t.Helper()
		return post(h, "/v1/rank", body)
	}
	// What a service that has answered nothing else says.
	untouched := func(path string, body []byte) string {
		return post(newTestService(t, newFakeClock(), bigBodies).Handler(), path, body)
	}
	byAlias := aliasRequests("q_alice")[0]

	first := rank(h, inline(4))
	if first != untouched("/v1/rank", inline(4)) {
		t.Fatalf("inline subject answered as:\n%s", first)
	}
	// An inline rescore and match answer alike and prepare nothing either.
	for path, req := range map[string]any{
		"/v1/rescore": &RescoreRequest{Subject: spec(4), Candidates: []string{"alice", "dave"}},
		"/v1/match":   &MatchRequest{Subject: spec(4)},
	} {
		body := []byte(encodeBody(t, req))
		if got, want := post(h, path, body), untouched(path, body); got != want {
			t.Fatalf("inline %s:\n got: %s\nwant: %s", path, got, want)
		}
	}
	for i := range st.prepared {
		if st.prepared[i].Load() != nil {
			t.Fatalf("an inline request prepared query subject %d", i)
		}
	}
	if got := rank(h, []byte(byAlias.body)); got != want[byAlias.key] {
		t.Fatalf("by-alias rank after an inline one of the same name:\n got: %s\nwant: %s", got, want[byAlias.key])
	}
	second := rank(h, inline(2))
	if second == first || second == want[byAlias.key] {
		t.Fatal("fixture defect: the inline variants and the alias answer alike")
	}
	if second != untouched("/v1/rank", inline(2)) {
		t.Fatalf("second inline subject of the same name answered as:\n%s", second)
	}
	if got := rank(h, []byte(byAlias.body)); got != want[byAlias.key] {
		t.Fatalf("by-alias rank after two inline ones of the same name:\n got: %s\nwant: %s", got, want[byAlias.key])
	}
}

func TestConcurrentFirstTouch(t *testing.T) {
	svc := newTestService(t, newFakeClock(), nil)
	st := svc.state.Load()
	alice := st.query["q_alice"]

	// Every first touch waits after preparing until all 64 have prepared,
	// so all of them reach the compare-and-swap with a query of their own.
	const touches = 64
	var arrived sync.WaitGroup
	arrived.Add(touches)
	svc.hookPrepared = func() {
		arrived.Done()
		arrived.Wait()
	}
	got := make([]*attribution.Query, touches)
	built := make([]bool, touches)
	var wg sync.WaitGroup
	for g := range touches {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g], built[g] = svc.prepared(st, alice)
		}()
	}
	wg.Wait()
	svc.hookPrepared = nil
	winner := st.prepared[alice].Load()
	for g := range touches {
		if !built[g] {
			t.Fatalf("touch %d did not report the preparation it paid for", g)
		}
		if got[g] != winner {
			t.Fatalf("touch %d answers with a query of its own, not the one the slot holds", g)
		}
	}
	if q, built := svc.prepared(st, alice); q != winner || built {
		t.Fatalf("warm touch: same query %v, built %v", q == winner, built)
	}

	// And over HTTP: 64 goroutines whose first requests are all first
	// touches of one alias answer as the library does.
	corpus := testCorpus(t)
	want := libraryBodies(t, st.matcher, corpus.Query, 1)
	reqs := aliasRequests("q_dave")
	h := svc.Handler()
	errs := make(chan string, touches)
	start := make(chan struct{})
	for g := range touches {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := range len(reqs) {
				r := reqs[(g+i)%len(reqs)]
				rec := do(h, http.MethodPost, r.path, "test-key", []byte(r.body))
				if got := rec.Body.String(); rec.Code != http.StatusOK || got != want[r.key] {
					errs <- r.key + ": " + got
					return
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
