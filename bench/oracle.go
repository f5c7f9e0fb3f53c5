package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"sync"
	"time"

	"darklight"
	"darklight/internal/attribution"
	"darklight/internal/forum"
	"darklight/internal/serve"
	"darklight/internal/store"
)

// oracle computes, through the library path, the answer the daemon must
// give: the snapshot the daemon itself saved is loaded with store.Load and
// queried with Matcher.MatchWith / RankDetailed / Rescore, and every HTTP
// response is compared with that answer field by field.
type oracle struct {
	pipe *darklight.Pipeline
	// subjects are the query subjects prepared exactly as the daemon
	// prepares them: read, polished, never refined. queries indexes them by
	// alias, names lists the aliases in dataset order.
	subjects []attribution.Subject
	queries  map[string]*attribution.Subject
	names    []string
	// indexes caches loaded snapshots by directory, wants the expected
	// responses by snapshot and request.
	indexes map[string]*store.Index
	wants   map[string]any
}

func newOracle(queryPath string) (*oracle, error) {
	pipe := darklight.NewPipeline()
	ds, err := darklight.LoadJSONL(queryPath, queryPath, forum.PlatformSynthetic)
	if err != nil {
		return nil, err
	}
	pipe.Polish(ds)
	subs, err := pipe.Subjects(ds)
	if err != nil {
		return nil, err
	}
	o := &oracle{pipe: pipe, subjects: subs, queries: make(map[string]*attribution.Subject, len(subs)), indexes: make(map[string]*store.Index), wants: make(map[string]any)}
	for i := range subs {
		o.queries[subs[i].Name] = &subs[i]
		o.names = append(o.names, subs[i].Name)
	}
	return o, nil
}

// index loads the snapshot kept in dir (as index.snap), once.
func (o *oracle) index(dir string) (*store.Index, error) {
	if idx, ok := o.indexes[dir]; ok {
		return idx, nil
	}
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	idx, err := st.Load()
	if err != nil {
		return nil, err
	}
	o.indexes[dir] = idx
	return idx, nil
}

func wireCandidates(scored []attribution.Scored) []serve.Candidate {
	out := make([]serve.Candidate, len(scored))
	for i, c := range scored {
		out[i] = serve.Candidate{Alias: c.Name, Score: c.Score}
	}
	return out
}

// inlineSubject builds an inline request's subject the way the daemon's
// resolve step does: sequential message ids, the same BuildSubjects call.
func (o *oracle) inlineSubject(spec *serve.SubjectSpec) (*attribution.Subject, error) {
	ds := forum.NewDataset("inline", forum.PlatformSynthetic)
	a := forum.Alias{Name: spec.Name, Messages: make([]forum.Message, len(spec.Messages))}
	for i, m := range spec.Messages {
		t, err := time.Parse(time.RFC3339, m.Time)
		if err != nil {
			return nil, err
		}
		a.Messages[i] = forum.Message{ID: fmt.Sprintf("q%06d", i), Author: spec.Name, Body: m.Body, PostedAt: t}
	}
	ds.Add(a)
	subs, err := attribution.BuildSubjects(ds, o.pipe.SubjectOptions())
	if err != nil {
		return nil, err
	}
	return &subs[0], nil
}

// expected is the response the daemon owes for r against the index m, with
// the index version left zero (the caller checks versions separately).
func (o *oracle) expected(r *request, m *attribution.Matcher) (any, error) {
	switch r.kind {
	case kindMatch:
		res := m.MatchWith(o.queries[r.alias], attribution.MatchOptions{})
		out := &serve.MatchResponse{
			Subject:    res.Unknown,
			Candidates: wireCandidates(res.Candidates),
			Rescored:   wireCandidates(res.Rescored),
			Accepted:   res.Accepted,
			Threshold:  o.pipe.MatcherOptions().Threshold,
		}
		if res.Best.Name != "" {
			out.Best = &serve.Candidate{Alias: res.Best.Name, Score: res.Best.Score}
		}
		return out, nil
	case kindRank:
		scored, _ := m.RankDetailed(o.queries[r.alias], attribution.MatchOptions{K: rankK})
		return &serve.RankResponse{Subject: r.alias, Candidates: wireCandidates(scored)}, nil
	case kindRescore:
		var req serve.RescoreRequest
		if err := json.Unmarshal(r.body, &req); err != nil {
			return nil, err
		}
		list := make([]attribution.Scored, len(req.Candidates))
		for i, name := range req.Candidates {
			list[i] = attribution.Scored{Name: name}
		}
		return &serve.RescoreResponse{Subject: r.alias, Rescored: wireCandidates(m.Rescore(o.queries[r.alias], list))}, nil
	case kindInline:
		var req serve.RankRequest
		if err := json.Unmarshal(r.body, &req); err != nil {
			return nil, err
		}
		sub, err := o.inlineSubject(&req.Subject)
		if err != nil {
			return nil, err
		}
		scored, _ := m.RankDetailed(sub, attribution.MatchOptions{K: rankK})
		return &serve.RankResponse{Subject: sub.Name, Candidates: wireCandidates(scored)}, nil
	}
	return nil, fmt.Errorf("bench: unknown request kind %q", r.kind)
}

// responseVersion reads index_version out of any /v1 response body.
func responseVersion(body []byte) (int, error) {
	var v struct {
		IndexVersion int `json:"index_version"`
	}
	if err := json.Unmarshal(body, &v); err != nil {
		return 0, err
	}
	return v.IndexVersion, nil
}

// compareResponse decodes body into want's type and requires it to equal
// want exactly — aliases, order, every score bit, the accept decision —
// apart from the index version.
func compareResponse(body []byte, want any) error {
	got := reflect.New(reflect.TypeOf(want).Elem())
	if err := json.Unmarshal(body, got.Interface()); err != nil {
		return fmt.Errorf("undecodable response: %w", err)
	}
	got.Elem().FieldByName("IndexVersion").SetInt(0)
	if !reflect.DeepEqual(got.Interface(), want) {
		g, _ := json.Marshal(got.Interface())
		w, _ := json.Marshal(want)
		return fmt.Errorf("response differs from the library path:\n got  %s\n want %s", g, w)
	}
	return nil
}

// verify checks every sample against the oracle. snapshots maps a daemon's
// serve-layer index version to the directory holding the snapshot it was
// serving then. It returns the number of samples that failed and the first
// few reasons.
func (o *oracle) verify(reqs []request, samples []sample, snapshots map[int]string) (failed int, reasons []string) {
	fail := func(format string, args ...any) {
		failed++
		if len(reasons) < 5 {
			reasons = append(reasons, fmt.Sprintf(format, args...))
		}
	}
	byVersion := make(map[int][]int)
	for i := range samples {
		s := &samples[i]
		switch {
		case s.err != nil:
			fail("%s %s: %v", reqs[s.req].kind, reqs[s.req].alias, s.err)
		case s.status != http.StatusOK:
			fail("%s %s: status %d: %s", reqs[s.req].kind, reqs[s.req].alias, s.status, s.body)
		default:
			v, err := responseVersion(s.body)
			if err != nil {
				fail("%s %s: %v", reqs[s.req].kind, reqs[s.req].alias, err)
				continue
			}
			byVersion[v] = append(byVersion[v], i)
		}
	}
	for v, idxs := range byVersion {
		dir, ok := snapshots[v]
		if !ok {
			fail("response from index version %d, which the harness never saw installed", v)
			failed += len(idxs) - 1
			continue
		}
		idx, err := o.index(dir)
		if err != nil {
			fail("oracle: load %s: %v", dir, err)
			failed += len(idxs) - 1
			continue
		}
		// One expectation per distinct request and snapshot, computed on
		// both cores and kept: ingest-wide sends the same cycle many times.
		var missing []int
		queued := make(map[string]bool)
		for _, i := range idxs {
			key := wantKey(dir, &reqs[samples[i].req])
			if _, done := o.wants[key]; !done && !queued[key] {
				queued[key] = true
				missing = append(missing, samples[i].req)
			}
		}
		computed := make([]any, len(missing))
		var wg sync.WaitGroup
		for c := 0; c < loadClients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for k := c; k < len(missing); k += loadClients {
					w, err := o.expected(&reqs[missing[k]], idx.Matcher)
					if err != nil {
						w = err
					}
					computed[k] = w
				}
			}(c)
		}
		wg.Wait()
		for k, r := range missing {
			o.wants[wantKey(dir, &reqs[r])] = computed[k]
		}
		for _, i := range idxs {
			s := &samples[i]
			w := o.wants[wantKey(dir, &reqs[s.req])]
			if err, isErr := w.(error); isErr {
				fail("oracle: %s %s: %v", reqs[s.req].kind, reqs[s.req].alias, err)
				continue
			}
			if err := compareResponse(s.body, w); err != nil {
				fail("%s %s (index v%d): %v", reqs[s.req].kind, reqs[s.req].alias, v, err)
			}
		}
	}
	return failed, reasons
}

func wantKey(dir string, r *request) string { return dir + "\x00" + r.path + "\x00" + string(r.body) }
