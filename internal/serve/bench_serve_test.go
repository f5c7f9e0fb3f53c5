package serve

// The serve load harness: closed-loop in-process drivers (no sockets, no
// network noise) hammering the full middleware + handler chain. Each
// benchmark verifies every response byte-for-byte against the sequential
// matcher answer — the load numbers are only worth recording if the served
// bytes are correct — and reports the per-request p99 latency as a custom
// "p99-ns" metric. These are unrecorded micro-benchmarks; the recorded
// serving figures are BENCHMARK.json's, measured over loopback against the
// real daemon (bash bench/run.sh).

import (
	"context"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"darklight/internal/attribution"
	"darklight/internal/forum"
	"darklight/internal/obs"
)

// benchEnv is built once and shared by all serve benchmarks.
type benchEnv struct {
	handler http.Handler
	// queries[i] holds the pre-marshaled request and expected response
	// bytes for one (endpoint, alias) pair.
	queries []benchQuery
}

type benchQuery struct {
	path string
	body []byte
	want string
}

var (
	benchOnce sync.Once
	bench     *benchEnv
)

// benchSetup builds a 36-alias known corpus, the service over it, and the
// expected bytes for every benchmark request, computed sequentially with
// an independently constructed matcher.
func benchSetup(b *testing.B) *benchEnv {
	b.Helper()
	benchOnce.Do(func() {
		ctx := context.Background()
		known := forum.NewDataset("bench-known", forum.PlatformSynthetic)
		for i := 0; i < 36; i++ {
			known.Add(styleAlias(benchName(i), i%len(styleWords)))
		}
		query := forum.NewDataset("bench-query", forum.PlatformSynthetic)
		query.Add(styleAlias("q_alice", 0))
		query.Add(styleAlias("q_dave", 3))

		ks, err := attribution.BuildSubjects(known, testSubjectOptions())
		if err != nil {
			panic(err)
		}
		qs, err := attribution.BuildSubjects(query, testSubjectOptions())
		if err != nil {
			panic(err)
		}
		m, err := attribution.NewMatcherContext(ctx, ks, testOptions())
		if err != nil {
			panic(err)
		}
		svc, err := New(ctx, Config{
			Loader: func(context.Context) (*Corpus, error) {
				return &Corpus{Known: ks, Query: qs}, nil
			},
			Options:  testOptions(),
			Subjects: testSubjectOptions(),
			APIKeys:  []string{"bench-key"},
			Registry: obs.NewRegistry(),
		})
		if err != nil {
			panic(err)
		}
		env := &benchEnv{handler: svc.Handler()}
		for i := range qs {
			sub := &qs[i]
			res := m.Match(sub)
			env.queries = append(env.queries,
				benchQuery{
					path: "/v1/rank",
					body: []byte(`{"subject":{"alias":"` + sub.Name + `"}}`),
					want: encodeBody(b, &RankResponse{IndexVersion: 1, Subject: sub.Name, Candidates: candidates(res.Candidates)}),
				},
				benchQuery{
					path: "/v1/match",
					body: []byte(`{"subject":{"alias":"` + sub.Name + `"}}`),
					want: encodeBody(b, matchResponse(1, &res, testOptions().Threshold)),
				})
			req := RescoreRequest{Subject: SubjectSpec{Alias: sub.Name}}
			for _, c := range res.Candidates {
				req.Candidates = append(req.Candidates, c.Name)
			}
			env.queries = append(env.queries, benchQuery{
				path: "/v1/rescore",
				body: []byte(encodeBody(b, &req)),
				want: encodeBody(b, &RescoreResponse{IndexVersion: 1, Subject: sub.Name, Rescored: candidates(m.Rescore(sub, res.Candidates))}),
			})
		}
		bench = env
	})
	return bench
}

func benchName(i int) string {
	return string([]byte{'k', byte('a' + i/10), byte('0' + i%10)})
}

// benchDrivers sizes the closed-loop driver pool to the machine: 2 per
// core, capped at 8. On a single-core runner more drivers only measure
// their own queueing, swamping the p99.
func benchDrivers() int {
	d := 2 * runtime.GOMAXPROCS(0)
	if d > 8 {
		d = 8
	}
	return d
}

// drive runs b.N requests through h on `drivers` closed-loop goroutines,
// selecting requests via pick, verifying every body, and reporting the
// p99 per-request latency.
func drive(b *testing.B, h http.Handler, drivers int, pick func(i int64) *benchQuery) {
	var next atomic.Int64
	var bad atomic.Int64
	lats := make([][]int64, drivers)
	var wg sync.WaitGroup
	b.ReportAllocs()
	b.ResetTimer()
	for g := 0; g < drivers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			mine := make([]int64, 0, b.N/drivers+1)
			for {
				i := next.Add(1) - 1
				if i >= int64(b.N) {
					break
				}
				q := pick(i)
				start := time.Now()
				rec := do(h, "POST", q.path, "bench-key", q.body)
				mine = append(mine, time.Since(start).Nanoseconds())
				if rec.Code != 200 || rec.Body.String() != q.want {
					bad.Add(1)
				}
			}
			lats[g] = mine
		}(g)
	}
	wg.Wait()
	b.StopTimer()
	if n := bad.Load(); n != 0 {
		b.Fatalf("%d of %d responses diverged from the sequential matcher", n, b.N)
	}
	var all []int64
	for _, l := range lats {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	if len(all) > 0 {
		idx := len(all) * 99 / 100
		if idx >= len(all) {
			idx = len(all) - 1
		}
		b.ReportMetric(float64(all[idx]), "p99-ns")
	}
}

func BenchmarkServeRank(b *testing.B) {
	env := benchSetup(b)
	ranks := rankQueries(env)
	drive(b, env.handler, benchDrivers(), func(i int64) *benchQuery { return ranks[i%int64(len(ranks))] })
}

func rankQueries(env *benchEnv) []*benchQuery {
	var ranks []*benchQuery
	for i := range env.queries {
		if env.queries[i].path == "/v1/rank" {
			ranks = append(ranks, &env.queries[i])
		}
	}
	return ranks
}

func BenchmarkServeMatch(b *testing.B) {
	env := benchSetup(b)
	var matches []*benchQuery
	for i := range env.queries {
		if env.queries[i].path == "/v1/match" {
			matches = append(matches, &env.queries[i])
		}
	}
	drive(b, env.handler, benchDrivers(), func(i int64) *benchQuery { return matches[i%int64(len(matches))] })
}

func BenchmarkServeMixed(b *testing.B) {
	env := benchSetup(b)
	drive(b, env.handler, benchDrivers(), func(i int64) *benchQuery { return &env.queries[i%int64(len(env.queries))] })
}
