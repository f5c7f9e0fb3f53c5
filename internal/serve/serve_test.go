package serve

// Shared fixtures: a hand-built deterministic corpus (no RNG — styles are
// cyclic word patterns), a fake Clock, and service constructors. The
// corpus is small but rich enough that every alias clears the activity
// minimum and stage-1 produces distinct, stable scores.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"darklight/internal/attribution"
	"darklight/internal/forum"
	"darklight/internal/obs"
)

// fakeClock is a deterministic Clock: Now is fixed until Advance moves it,
// and After timers fire only when Advance crosses them.
type fakeClock struct {
	mu     sync.Mutex
	now    time.Time
	timers []fakeTimer
}

type fakeTimer struct {
	at time.Time
	ch chan time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Date(2024, 6, 1, 12, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) After(d time.Duration) <-chan time.Time {
	ch := make(chan time.Time, 1)
	c.mu.Lock()
	defer c.mu.Unlock()
	at := c.now.Add(d)
	if d <= 0 {
		ch <- c.now
		return ch
	}
	c.timers = append(c.timers, fakeTimer{at: at, ch: ch})
	return ch
}

// pending reports how many After timers are armed — tests use it to wait
// until Drain has registered its deadline before advancing the clock.
func (c *fakeClock) pending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.timers)
}

// Advance moves the clock and fires every timer whose deadline passed.
func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
	var keep []fakeTimer
	for _, t := range c.timers {
		if !t.at.After(c.now) {
			t.ch <- c.now
		} else {
			keep = append(keep, t)
		}
	}
	c.timers = keep
}

// Style vocabularies: each variant leans on its own word pool and
// punctuation habit, so stage-1 cosine cleanly separates variants while
// same-variant aliases score high against each other.
var styleWords = [][]string{
	{"shipment", "arrived", "stealth", "vendor", "escrow", "finalize", "quality", "reship", "tracking", "packaging"},
	{"privacy", "threat", "model", "opsec", "encrypt", "metadata", "signal", "compartment", "leak", "audit"},
	{"garden", "harvest", "strain", "organic", "terpene", "flower", "cultivar", "greenhouse", "soil", "bloom"},
	{"market", "listing", "refund", "dispute", "moderator", "feedback", "order", "wallet", "deposit", "withdraw"},
	{"keyboard", "latency", "firmware", "solder", "switch", "keycap", "matrix", "debounce", "layout", "macro"},
	{"coffee", "roast", "espresso", "grinder", "crema", "filter", "brew", "acidity", "blend", "origin"},
}

var stylePunct = []string{".", "!", "...", ".", "?!", "."}

// styleBody builds one deterministic ~12-word message for (variant, i).
func styleBody(variant, i int) string {
	words := styleWords[variant%len(styleWords)]
	var b strings.Builder
	for w := 0; w < 12; w++ {
		if w > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(words[(i*5+w*3+variant)%len(words)])
	}
	b.WriteString(stylePunct[variant%len(stylePunct)])
	return b.String()
}

// styleAlias builds one alias: 60 messages spaced 5 hours apart through
// spring 2017 weekdays-and-weekends, enough that ≥30 usable timestamps
// survive the paper's weekend/holiday exclusions.
func styleAlias(name string, variant int) forum.Alias {
	base := time.Date(2017, 3, 1, 8, 0, 0, 0, time.UTC)
	a := forum.Alias{Name: name, Platform: forum.PlatformSynthetic}
	for i := 0; i < 60; i++ {
		a.Messages = append(a.Messages, forum.Message{
			ID:       fmt.Sprintf("%s-%03d", name, i),
			Author:   name,
			Body:     styleBody(variant, i),
			PostedAt: base.Add(time.Duration(i) * 5 * time.Hour),
		})
	}
	return a
}

// testSubjectOptions is the paper's subject construction on one worker.
func testSubjectOptions() attribution.SubjectOptions {
	o := attribution.DefaultSubjectOptions()
	o.Workers = 1
	return o
}

// newKnownDataset builds the six known aliases with styles offset by
// shift: alias i writes in variant (i+shift) mod 6. Shift 0 is the
// canonical fixture; any other shift changes every stage-1 ordering (the
// reload-atomicity test leans on that).
func newKnownDataset(shift int) *forum.Dataset {
	known := forum.NewDataset("known", forum.PlatformSynthetic)
	names := []string{"alice", "bob", "carol", "dave", "erin", "frank"}
	for i, n := range names {
		known.Add(styleAlias(n, (i+shift)%len(styleWords)))
	}
	return known
}

// testCorpus builds the fixture: six known aliases (variants 0-5) and two
// query aliases echoing variants 0 and 3.
func testCorpus(t testing.TB) *Corpus {
	t.Helper()
	known := newKnownDataset(0)
	query := forum.NewDataset("query", forum.PlatformSynthetic)
	query.Add(styleAlias("q_alice", 0))
	query.Add(styleAlias("q_dave", 3))

	ks, err := attribution.BuildSubjects(known, testSubjectOptions())
	if err != nil {
		t.Fatalf("build known subjects: %v", err)
	}
	qs, err := attribution.BuildSubjects(query, testSubjectOptions())
	if err != nil {
		t.Fatalf("build query subjects: %v", err)
	}
	return &Corpus{Known: ks, Query: qs}
}

// testOptions is the paper configuration with single-threaded builds.
func testOptions() attribution.Options {
	o := attribution.DefaultOptions()
	o.Workers = 1
	return o
}

// newTestService builds a Service over the fixture corpus. mutate tweaks
// the config before construction.
func newTestService(t testing.TB, clock Clock, mutate func(*Config)) *Service {
	t.Helper()
	corpus := testCorpus(t)
	cfg := Config{
		Loader:   func(context.Context) (*Corpus, error) { return corpus, nil },
		Options:  testOptions(),
		Subjects: testSubjectOptions(),
		APIKeys:  []string{"test-key", "secondary-key"},
		MaxBody:  2048,
		Clock:    clock,
		Registry: obs.NewRegistry(),
	}
	if mutate != nil {
		mutate(&cfg)
	}
	svc, err := New(context.Background(), cfg)
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	return svc
}

// TestLoaderSuppliedMatcher: a loader that hands back a pre-built matcher
// (the internal/store cold-start path) must have it installed verbatim —
// no rebuild — and answer queries identically to a service that indexed
// the same subjects itself.
func TestLoaderSuppliedMatcher(t *testing.T) {
	corpus := testCorpus(t)
	pre, err := attribution.NewMatcher(corpus.Known, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	svc := newTestService(t, newFakeClock(), func(c *Config) {
		c.Loader = func(context.Context) (*Corpus, error) {
			return &Corpus{Known: corpus.Known, Query: corpus.Query, Matcher: pre}, nil
		}
	})
	if got := svc.state.Load().matcher; got != pre {
		t.Fatal("service rebuilt the index instead of installing the loader's matcher")
	}
	plain := newTestService(t, newFakeClock(), nil)
	body := []byte(`{"subject":{"alias":"q_alice"},"k":3}`)
	a := do(svc.Handler(), http.MethodPost, "/v1/rank", "test-key", body)
	b := do(plain.Handler(), http.MethodPost, "/v1/rank", "test-key", body)
	if a.Code != http.StatusOK || a.Body.String() != b.Body.String() {
		t.Fatalf("prebuilt-matcher service diverges:\n%d %s\nvs %s", a.Code, a.Body.String(), b.Body.String())
	}
}

// TestMatchReportsTheMatchersThreshold: the matcher decides "accepted", so
// the threshold beside it must be the matcher's — a loader-supplied matcher
// (a snapshot's) may have been built at another threshold than
// Config.Options carries, and the response must not show accepted:false
// beside a threshold the best score clears, or the reverse.
func TestMatchReportsTheMatchersThreshold(t *testing.T) {
	corpus := testCorpus(t)
	body := []byte(`{"subject":{"alias":"q_alice"}}`)
	match := func(svc *Service) MatchResponse {
		t.Helper()
		rec := do(svc.Handler(), http.MethodPost, "/v1/match", "test-key", body)
		var resp MatchResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || rec.Code != http.StatusOK || resp.Best == nil {
			t.Fatalf("match: %d %s (%v)", rec.Code, rec.Body.String(), err)
		}
		return resp
	}
	score := match(newTestService(t, newFakeClock(), nil)).Best.Score
	for _, tc := range []struct{ matcher, config float64 }{
		{matcher: score + 0.01, config: score - 0.01},
		{matcher: score - 0.01, config: score + 0.01},
	} {
		opts := testOptions()
		opts.Threshold = tc.matcher
		pre, err := attribution.NewMatcher(corpus.Known, opts)
		if err != nil {
			t.Fatal(err)
		}
		resp := match(newTestService(t, newFakeClock(), func(c *Config) {
			c.Options.Threshold = tc.config
			c.Loader = func(context.Context) (*Corpus, error) {
				return &Corpus{Known: corpus.Known, Query: corpus.Query, Matcher: pre}, nil
			}
		}))
		if resp.Threshold != tc.matcher || resp.Accepted != (resp.Best.Score >= resp.Threshold) {
			t.Errorf("matcher built at %v, Config.Options at %v: accepted %v, best score %v, threshold %v",
				tc.matcher, tc.config, resp.Accepted, resp.Best.Score, resp.Threshold)
		}
	}
}

// do issues one in-process request and returns the recorder.
func do(h http.Handler, method, path, apiKey string, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	if apiKey != "" {
		req.Header.Set("X-API-Key", apiKey)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}
