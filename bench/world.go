package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"darklight"
	"darklight/internal/corpus"
	"darklight/internal/forum"
	"darklight/internal/serve"
	"darklight/internal/synth"
)

// sizing fixes how much work one run does. The full sizing is what
// BENCHMARK.json measures; the smoke sizing runs every code path in a few
// seconds for the harness's own test.
type sizing struct {
	deepUsers     int     // aliases of the deep world
	deepQueries   int     // cap on deep query aliases
	wideUsers     int     // aliases of the wide world
	wideQueries   int     // cap on wide query aliases
	mixedAliases  int     // aliases the mixed-reload request mix draws from
	setupReps     int     // ingest → restart → reload repetitions per run
	tracedQueries int     // query subjects the traced run times per layer
	traceWindow   float64 // seconds of daemon traffic inside a traced run
}

var (
	fullSizing  = sizing{deepUsers: 64, deepQueries: 48, wideUsers: 320, wideQueries: 100, mixedAliases: 32, setupReps: 4, tracedQueries: 24, traceWindow: 2}
	smokeSizing = sizing{deepUsers: 32, deepQueries: 16, wideUsers: 120, wideQueries: 30, mixedAliases: 8, setupReps: 1, tracedQueries: 6, traceWindow: 0.5}
)

// World shapes. Every run is compared with runs on other seeds, so a world
// must be the same amount of work whatever its seed: alias sizes are drawn
// from a narrow lognormal (σ 0.1 against the paper-shaped 1.1) and the
// alias-level noise that makes the polished population a matter of luck
// (bots, mostly-foreign posters) is off. Message-level noise — spam,
// quotes, PGP blocks, URLs, edits — stays, so polishing still works.
const (
	// deepWordsMu gives ≈ 6,600 words an alias: each alter-ego half keeps
	// well over the 1,500-word budget after polishing and refinement.
	deepWordsMu = 8.8
	// wideWordsMu gives ≈ 650 words an alias.
	wideWordsMu = 6.5
	wordsSigma  = 0.1
	// The wide aliases sit far below the paper's 3,000-word split
	// threshold, so their split keeps the §IV-D mechanism
	// (corpus.SplitAlterEgos) with thresholds short documents can reach.
	wideSplitMinWords      = 600
	wideSplitMinTimestamps = 12
)

// world is one generated corpus: the raw known and query datasets the
// daemon is handed as JSONL, and the daemon flags that go with them.
type world struct {
	kind   string // "deep" or "wide"
	seed   uint64
	known  *forum.Dataset
	query  *forum.Dataset
	refine bool // daemon default; the wide world runs -refine=false
}

// generateWorld builds the named world from the seed. Few subjects with
// long documents ("deep") put extraction and stage 2 on the request path;
// many subjects with short documents ("wide") put the stage-1 scan,
// postings and snapshot sections there. The harness does the alter-ego
// split on the raw messages; polishing and refinement are the daemon's.
func generateWorld(kind string, seed uint64, sz sizing) (*world, error) {
	cfg := synth.DefaultConfig().Scaled(0.01)
	cfg.Seed = seed + 1 // the generator reads seed 0 as "default"
	cfg.RedditWordsSigma = wordsSigma
	cfg.BotFraction = 0
	cfg.ForeignFraction = 0
	split := corpus.AlterEgoOptions{Activity: darklight.NewPipeline().SubjectOptions().Activity, Seed: int64(seed)}
	w := &world{kind: kind, seed: seed}
	queries := 0
	switch kind {
	case "deep":
		cfg.RedditUsers, cfg.RedditWordsMu = sz.deepUsers, deepWordsMu
		w.refine, queries = true, sz.deepQueries
	case "wide":
		cfg.RedditUsers, cfg.RedditWordsMu = sz.wideUsers, wideWordsMu
		split.MinWords, split.MinTimestamps = wideSplitMinWords, wideSplitMinTimestamps
		queries = sz.wideQueries
	default:
		return nil, fmt.Errorf("unknown world %q", kind)
	}
	gen, err := synth.Generate(cfg)
	if err != nil {
		return nil, fmt.Errorf("%s world: %w", kind, err)
	}
	w.known, w.query = corpus.SplitAlterEgos(gen.Reddit, split)
	if len(w.query.Aliases) > queries {
		w.query.Aliases = w.query.Aliases[:queries]
	}
	if len(w.query.Aliases) == 0 {
		return nil, fmt.Errorf("%s world: no alias is long enough to split into a query", kind)
	}
	return w, nil
}

// stage writes the two JSONL files the daemon reads.
func (w *world) stage(dir string) (knownPath, queryPath string, err error) {
	knownPath = filepath.Join(dir, "known.jsonl")
	queryPath = filepath.Join(dir, "query.jsonl")
	if err := darklight.SaveJSONL(knownPath, w.known); err != nil {
		return "", "", err
	}
	if err := darklight.SaveJSONL(queryPath, w.query); err != nil {
		return "", "", err
	}
	return knownPath, queryPath, nil
}

// daemonFlags are the non-default flags this world needs.
func (w *world) daemonFlags() []string {
	if w.refine {
		return nil
	}
	return []string{"-refine=false"}
}

// journalBatch is the n-th batch of freshly scraped threads folded in by a
// reload: 2 threads × 5 messages whose authors are nine known aliases and
// one alias the index has never seen. Bodies and times are lifted from
// the query corpus so the new text is in-distribution.
func (w *world) journalBatch(n int) []forum.ThreadRecord {
	r := rand.New(rand.NewSource(int64(w.seed)*1000 + int64(n)))
	var pool []forum.Message
	for i := range w.query.Aliases {
		pool = append(pool, w.query.Aliases[i].Messages...)
	}
	recs := make([]forum.ThreadRecord, 2)
	for t := range recs {
		recs[t].Thread = fmt.Sprintf("journal-%d-%d", n, t)
		for i := 0; i < 5; i++ {
			src := pool[r.Intn(len(pool))]
			author := w.known.Aliases[r.Intn(len(w.known.Aliases))].Name
			if t == 0 && i == 0 {
				author = fmt.Sprintf("newcomer_%d", n)
			}
			recs[t].Messages = append(recs[t].Messages, forum.Message{
				ID:       fmt.Sprintf("j%d-%d-%d", n, t, i),
				Author:   author,
				Thread:   recs[t].Thread,
				Body:     src.Body,
				PostedAt: src.PostedAt,
			})
		}
	}
	return recs
}

// request is one HTTP call the load generator can make.
type request struct {
	kind  string // match, rank, rescore, inline
	alias string
	path  string
	body  []byte
}

const (
	kindMatch   = "match"
	kindRank    = "rank"
	kindRescore = "rescore"
	kindInline  = "inline"

	rankK          = 10
	inlineMessages = 20
)

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain structs of strings and numbers
	}
	return b
}

func matchRequest(alias string) request {
	return request{kind: kindMatch, alias: alias, path: "/v1/match",
		body: mustJSON(serve.MatchRequest{Subject: serve.SubjectSpec{Alias: alias}})}
}

func rankRequest(alias string) request {
	return request{kind: kindRank, alias: alias, path: "/v1/rank",
		body: mustJSON(serve.RankRequest{Subject: serve.SubjectSpec{Alias: alias}, K: rankK})}
}

func rescoreRequest(alias string, candidates []string) request {
	return request{kind: kindRescore, alias: alias, path: "/v1/rescore",
		body: mustJSON(serve.RescoreRequest{Subject: serve.SubjectSpec{Alias: alias}, Candidates: candidates})}
}

// inlineSpec is the inline subject for alias: its first raw messages,
// carried in the request body so the daemon decodes them and builds the
// subject on the request path.
func (w *world) inlineSpec(alias string) serve.SubjectSpec {
	spec := serve.SubjectSpec{Name: "inline_" + alias}
	for i := range w.query.Aliases {
		a := &w.query.Aliases[i]
		if a.Name != alias {
			continue
		}
		for j := 0; j < len(a.Messages) && j < inlineMessages; j++ {
			spec.Messages = append(spec.Messages, serve.MessageSpec{
				Body: a.Messages[j].Body,
				Time: a.Messages[j].PostedAt.Format(time.RFC3339),
			})
		}
	}
	return spec
}

func (w *world) inlineRequest(alias string) request {
	return request{kind: kindInline, alias: alias, path: "/v1/rank",
		body: mustJSON(serve.RankRequest{Subject: w.inlineSpec(alias), K: rankK})}
}

// mixBlock is the request mix of mixed-reload, 20 requests at a time:
// 60 % match, 20 % rank, 10 % rescore, 10 % inline rank (the numbers index
// a request's kind within its alias's four requests). Latency has a hump
// per kind, and a median or a tail percentile that sits between two humps
// jumps from one to the other on the slightest shift: with matches the
// majority, both sit inside the matches' hump. For the same reason every
// block of 20 holds exactly this mix, in seeded order, instead of drawing
// each kind at random.
var mixBlock = [20]int{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 3, 3}

// mixedBlocks is how many blocks the mixed-reload request cycle holds:
// 400 requests, more than a window gets through.
const mixedBlocks = 20

// mixedOrder is the cycle of requests mixed-reload's clients walk: indices
// into a request list laid out [alias][match, rank, rescore, inline], over
// the given number of aliases.
func mixedOrder(seed uint64, aliases int) []int {
	r := rand.New(rand.NewSource(int64(seed)))
	out := make([]int, 0, mixedBlocks*len(mixBlock))
	for b := 0; b < mixedBlocks; b++ {
		block := mixBlock
		r.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		for _, kind := range block {
			out = append(out, r.Intn(aliases)*4+kind)
		}
	}
	return out
}
