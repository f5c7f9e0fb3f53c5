package serve

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"time"

	"darklight/internal/attribution"
	"darklight/internal/forum"
	"darklight/internal/obs"
)

// handleRank is POST /v1/rank: stage 1 only — the top-k known subjects by
// cosine similarity under the server's weights. It goes through
// RankDetailed — Rank with the scan's stats kept — so the "prefilter" span
// says what the scan that ran did: mode, subjects examined, heap evictions.
func (s *Service) handleRank(r *http.Request, st *state, body []byte) (any, *Error) {
	ctx, span := obs.Start(r.Context(), "rank")
	defer span.End()
	span.SetAttr("index_version", strconv.Itoa(st.version))
	var req RankRequest
	if apiErr := decodeRequest(body, &req); apiErr != nil {
		return nil, apiErr
	}
	if req.K < 0 {
		return nil, errInvalidRequest("k must be >= 0")
	}
	sub, apiErr := s.resolveSubject(ctx, st, &req.Subject)
	if apiErr != nil {
		return nil, apiErr
	}
	_, psp := obs.Start(ctx, "prefilter")
	scored, pst := st.matcher.RankDetailed(sub, attribution.MatchOptions{K: req.K})
	psp.SetAttr("mode", pst.Mode.String())
	psp.SetAttr("candidates", strconv.Itoa(pst.Candidates))
	psp.SetAttr("pruned", strconv.Itoa(pst.Pruned))
	psp.SetAttr("evictions", strconv.Itoa(pst.Evictions))
	psp.AddItems(int64(pst.Scored))
	psp.End()
	return &RankResponse{
		IndexVersion: st.version,
		Subject:      sub.Name,
		Candidates:   candidates(scored),
	}, nil
}

// handleRescore is POST /v1/rescore: stage 2 over an explicit candidate
// list. Every candidate must exist in the live index — a silent drop would
// make "no result" ambiguous between "unknown name" and "scored last".
func (s *Service) handleRescore(r *http.Request, st *state, body []byte) (any, *Error) {
	ctx, span := obs.Start(r.Context(), "rescore")
	defer span.End()
	span.SetAttr("index_version", strconv.Itoa(st.version))
	var req RescoreRequest
	if apiErr := decodeRequest(body, &req); apiErr != nil {
		return nil, apiErr
	}
	if len(req.Candidates) == 0 {
		return nil, errInvalidRequest("candidates must name at least one known subject")
	}
	// A repeated name would be fetched twice and count double in the
	// stage-2 frequency and document-frequency tables, moving every other
	// candidate's score as well as returning two rows.
	list := make([]attribution.Scored, len(req.Candidates))
	seen := make(map[string]struct{}, len(req.Candidates))
	for i, name := range req.Candidates {
		if _, ok := st.knownSet[name]; !ok {
			return nil, errUnknownAlias(name)
		}
		if _, dup := seen[name]; dup {
			return nil, errInvalidRequest(fmt.Sprintf("candidate %q is listed more than once", name))
		}
		seen[name] = struct{}{}
		list[i] = attribution.Scored{Name: name}
	}
	sub, apiErr := s.resolveSubject(ctx, st, &req.Subject)
	if apiErr != nil {
		return nil, apiErr
	}
	span.AddItems(int64(len(list)))
	scored := st.matcher.Rescore(sub, list)
	return &RescoreResponse{
		IndexVersion: st.version,
		Subject:      sub.Name,
		Rescored:     candidates(scored),
	}, nil
}

// handleMatch is POST /v1/match: the full two-stage §IV-I algorithm. The
// body is field-for-field the facade's MatchResult — the concurrency test
// pins the bytes identical to darklight.Pipeline output.
func (s *Service) handleMatch(r *http.Request, st *state, body []byte) (any, *Error) {
	ctx, span := obs.Start(r.Context(), "match")
	defer span.End()
	span.SetAttr("index_version", strconv.Itoa(st.version))
	var req MatchRequest
	if apiErr := decodeRequest(body, &req); apiErr != nil {
		return nil, apiErr
	}
	sub, apiErr := s.resolveSubject(ctx, st, &req.Subject)
	if apiErr != nil {
		return nil, apiErr
	}
	res := st.matcher.Match(sub)
	span.SetAttr("accepted", strconv.FormatBool(res.Accepted))
	return matchResponse(st.version, &res, st.matcher.Options().Threshold), nil
}

// matchResponse converts one MatchResult into the wire form.
func matchResponse(version int, res *attribution.MatchResult, threshold float64) *MatchResponse {
	out := &MatchResponse{
		IndexVersion: version,
		Subject:      res.Unknown,
		Candidates:   candidates(res.Candidates),
		Rescored:     candidates(res.Rescored),
		Accepted:     res.Accepted,
		Threshold:    threshold,
	}
	if res.Best.Name != "" {
		out.Best = &Candidate{Alias: res.Best.Name, Score: res.Best.Score}
	}
	return out
}

// handleHealthz is GET /v1/healthz. It needs no auth and survives the
// drain gate so orchestrators can watch a draining instance go quiet. The
// body carries the live snapshot's provenance — index version, reload
// count, and (for store-backed corpora) the journal sequence the snapshot
// was built from — so "is it up" and "is it current" are one probe.
func (s *Service) handleHealthz(r *http.Request, st *state, _ []byte) (any, *Error) {
	status := "ok"
	draining := s.draining.Load()
	if draining {
		status = "draining"
	}
	return &HealthResponse{
		Status:         status,
		IndexVersion:   st.version,
		KnownSubjects:  len(st.known),
		QuerySubjects:  len(st.query),
		Reloads:        int(s.reloadCount.Load()),
		LastJournalSeq: st.lastSeq,
		Draining:       draining,
	}, nil
}

// candidates converts matcher output to the wire form, re-asserting the
// deterministic order contract: score descending, ties broken by ascending
// alias name. The matcher already emits this order (topKScores and Rescore
// share the comparator); the sort here makes the contract local to the
// response instead of an assumption about a callee. An empty list encodes
// as [] rather than null.
func candidates(scored []attribution.Scored) []Candidate {
	out := make([]Candidate, len(scored))
	for i, c := range scored {
		out[i] = Candidate{Alias: c.Name, Score: c.Score}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Alias < out[j].Alias
	})
	return out
}

// resolveSubject turns a SubjectSpec into a matchable subject: a by-alias
// reference into the snapshot's query corpus, or an inline subject built
// through the exact BuildSubjects path the batch pipeline uses. The
// "resolve" span separates cheap alias lookups from expensive inline
// subject builds in a retained trace.
func (s *Service) resolveSubject(ctx context.Context, st *state, spec *SubjectSpec) (*attribution.Subject, *Error) {
	_, span := obs.Start(ctx, "resolve")
	defer span.End()
	if apiErr := spec.validate(); apiErr != nil {
		return nil, apiErr
	}
	if spec.Alias != "" {
		span.SetAttr("source", "alias")
		sub, ok := st.query[spec.Alias]
		if !ok {
			return nil, errUnknownAlias(spec.Alias)
		}
		return sub, nil
	}
	span.SetAttr("source", "inline")
	span.AddItems(int64(len(spec.Messages)))
	ds := forum.NewDataset("inline", forum.PlatformSynthetic)
	a := forum.Alias{Name: spec.Name, Messages: make([]forum.Message, len(spec.Messages))}
	for i, m := range spec.Messages {
		t, err := time.Parse(time.RFC3339, m.Time)
		if err != nil {
			return nil, errInvalidRequest(fmt.Sprintf("messages[%d].time: %v (want RFC 3339)", i, err))
		}
		// The sequential id makes the longest-first document selection a
		// pure function of the request: length ties keep request order.
		a.Messages[i] = forum.Message{
			ID:       fmt.Sprintf("q%06d", i),
			Author:   spec.Name,
			Body:     m.Body,
			PostedAt: t,
		}
	}
	ds.Add(a)
	subs, err := attribution.BuildSubjects(ds, s.cfg.Subjects)
	if err != nil {
		return nil, &Error{Code: CodeInternal, Message: "building query subject: " + err.Error(), Status: http.StatusInternalServerError}
	}
	return &subs[0], nil
}
