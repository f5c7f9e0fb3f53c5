package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"testing"
	"time"

	"darklight/internal/serve"
)

func TestPercentile(t *testing.T) {
	var s []float64
	for i := 100; i >= 1; i-- {
		s = append(s, float64(i))
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {95, 95}, {99, 99}, {100, 100}, {0.5, 1}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// The highest percentile worth reporting has at least ten samples beyond
// it.
func TestHighestSupported(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{50, 0}, {99, 0}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {10000, 99.9}} {
		if got := highestSupported(c.n); got != c.want {
			t.Errorf("highestSupported(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

// Every block of 20 in the mixed-reload cycle holds the stated mix
// exactly, over aliases inside the range.
func TestMixedOrderKeepsTheMix(t *testing.T) {
	order := mixedOrder(9, 8)
	for b := 0; b+len(mixBlock) <= len(order); b += len(mixBlock) {
		var kinds [4]int
		for _, i := range order[b : b+len(mixBlock)] {
			if i < 0 || i >= 8*4 {
				t.Fatalf("request index %d outside 8 aliases", i)
			}
			kinds[i%4]++
		}
		if kinds != [4]int{12, 4, 2, 2} {
			t.Fatalf("block at %d holds %v, want 12 match, 4 rank, 2 rescore, 2 inline", b, kinds)
		}
	}
}

// A closed loop's clients each wait for their answer, cover the request
// list between them, and time every request on its own.
func TestClosedLoop(t *testing.T) {
	const service = 5 * time.Millisecond
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(service)
		w.Write([]byte(r.URL.Path))
	}))
	defer srv.Close()
	reqs := []request{{path: "/a"}, {path: "/b"}, {path: "/c"}, {path: "/d"}}
	samples, elapsed := closedLoop(srv.URL, reqs, 2, 100*time.Millisecond)
	if elapsed < 100*time.Millisecond || len(samples) < 8 || len(samples) > 2*int(elapsed/service) {
		t.Fatalf("%d samples in %v", len(samples), elapsed)
	}
	seen := map[int]bool{}
	for _, s := range samples {
		seen[s.req] = true
		if s.err != nil || s.status != http.StatusOK || string(s.body) != reqs[s.req].path || s.latency < service {
			t.Errorf("sample %+v", s)
		}
	}
	if len(seen) != len(reqs) {
		t.Errorf("clients covered %d of %d requests", len(seen), len(reqs))
	}
	if pass := onePass(srv.URL, reqs, 2); len(pass) != 4 || pass[2].req != 2 || string(pass[2].body) != "/c" {
		t.Errorf("onePass: %+v", pass)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past the root
		{ID: 5, Parent: 2, Name: "a.inner", Start: 12, End: 20},
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{1: 50, 2: 12, 3: 30, 4: 30, 5: 8} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

func TestSpanRecorderNests(t *testing.T) {
	rec := newSpanRecorder()
	rec.do("outer", func() {
		rec.request = "q1"
		rec.do("inner", func() {})
		rec.off = true
		rec.do("unrecorded", func() {})
		rec.off = false
	})
	if len(rec.spans) != 2 {
		t.Fatalf("%d spans, want 2", len(rec.spans))
	}
	outer, inner := rec.spans[0], rec.spans[1]
	if inner.Parent != outer.ID || outer.Parent != 0 || inner.Request != "q1" {
		t.Errorf("outer %+v, inner %+v", outer, inner)
	}
	if inner.Start < outer.Start || inner.End > outer.End {
		t.Errorf("inner %+v not inside outer %+v", inner, outer)
	}
	path := filepath.Join(t.TempDir(), "out", "trace.jsonl")
	if err := rec.write(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(raw, []byte("\n")); n != 2 {
		t.Errorf("%d lines written, want 2", n)
	}
}

func TestCompareResponse(t *testing.T) {
	want := &serve.MatchResponse{
		Subject:    "q",
		Candidates: []serve.Candidate{{Alias: "a", Score: 0.5}, {Alias: "b", Score: 0.25}},
		Rescored:   []serve.Candidate{{Alias: "b", Score: 0.75}, {Alias: "a", Score: 0.1}},
		Best:       &serve.Candidate{Alias: "b", Score: 0.75},
		Accepted:   true,
		Threshold:  0.419,
	}
	body := func(mutate func(*serve.MatchResponse)) []byte {
		var got serve.MatchResponse
		raw, _ := json.Marshal(want)
		json.Unmarshal(raw, &got)
		got.IndexVersion = 7 // never part of the comparison
		mutate(&got)
		raw, _ = json.Marshal(&got)
		return raw
	}
	if err := compareResponse(body(func(*serve.MatchResponse) {}), want); err != nil {
		t.Errorf("identical response rejected: %v", err)
	}
	for name, mutate := range map[string]func(*serve.MatchResponse){
		"score off by one ulp": func(r *serve.MatchResponse) { r.Rescored[0].Score = math.Nextafter(0.75, 1) },
		"order swapped":        func(r *serve.MatchResponse) { r.Candidates[0], r.Candidates[1] = r.Candidates[1], r.Candidates[0] },
		"accept flipped":       func(r *serve.MatchResponse) { r.Accepted = false },
		"best missing":         func(r *serve.MatchResponse) { r.Best = nil },
		"candidate dropped":    func(r *serve.MatchResponse) { r.Candidates = r.Candidates[:1] },
	} {
		if err := compareResponse(body(mutate), want); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if err := compareResponse([]byte(`{"error":`), want); err == nil {
		t.Error("truncated body accepted")
	}
}

// The same seed yields byte-identical corpus files, request bodies,
// journal batches and mixed-reload request order; another seed does not.
func TestSeedDeterminism(t *testing.T) {
	type inputs struct {
		known, query []byte
		bodies       [][]byte
		batch        []byte
		order        []int
	}
	gen := func(kind string, seed uint64) inputs {
		w, err := generateWorld(kind, seed, smokeSizing)
		if err != nil {
			t.Fatal(err)
		}
		knownPath, queryPath, err := w.stage(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		var in inputs
		if in.known, err = os.ReadFile(knownPath); err != nil {
			t.Fatal(err)
		}
		if in.query, err = os.ReadFile(queryPath); err != nil {
			t.Fatal(err)
		}
		for i := range w.query.Aliases {
			name := w.query.Aliases[i].Name
			in.bodies = append(in.bodies, matchRequest(name).body, rankRequest(name).body, w.inlineRequest(name).body)
		}
		in.batch = mustJSON(w.journalBatch(1))
		in.order = mixedOrder(seed, smokeSizing.mixedAliases)
		return in
	}
	for _, kind := range []string{"deep", "wide"} {
		a, b, other := gen(kind, 3), gen(kind, 3), gen(kind, 4)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s world: two generations from seed 3 differ", kind)
		}
		if bytes.Equal(a.known, other.known) || reflect.DeepEqual(a.order, other.order) {
			t.Errorf("%s world: seeds 3 and 4 gave the same inputs", kind)
		}
		if len(a.bodies) == 0 || len(a.order) != mixedBlocks*len(mixBlock) {
			t.Errorf("%s world: %d request bodies, %d requests in the mixed cycle", kind, len(a.bodies), len(a.order))
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// BENCHMARK.json stays inside the limits the benchmark contract sets.
func TestSpecWithinContract(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 || len(raw) > 64<<10 {
		t.Errorf("run_seconds %d, %d bytes", doc.RunSeconds, len(raw))
	}
	if !reflect.DeepEqual(doc.Paths, []string{"bench"}) {
		t.Errorf("paths = %v", doc.Paths)
	}
	seen := map[string]bool{}
	check := func(name, unit, better string) {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("name %q is malformed or repeated", name)
		}
		seen[name] = true
		if unit != "" && !unitRE.MatchString(unit) {
			t.Errorf("%s: unit %q", name, unit)
		}
		if better != "" && better != "lower" && better != "higher" {
			t.Errorf("%s: better %q", name, better)
		}
	}
	var names []string
	for _, w := range doc.Workloads {
		check(w.Name, "", "")
		names = append(names, w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if !reflect.DeepEqual(names, ours) {
		t.Errorf("workloads %v, harness has %v", names, ours)
	}
	setup := false
	for _, e := range doc.EndToEnd {
		check(e.Name, e.Unit, e.Better)
		if e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("%s: bound %v", e.Name, e.Bound)
		}
		setup = setup || (e.Name == "setup_s" && e.Unit == "s" && e.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, p := range doc.PerLayer {
		check(p.Name, p.Unit, p.Better)
	}
	if len(doc.PerLayer) < 1 || len(doc.PerLayer) > 128 || len(doc.EndToEnd) > 16 {
		t.Errorf("%d per-layer and %d end-to-end metrics", len(doc.PerLayer), len(doc.EndToEnd))
	}
}

func metricNames(m map[string]metric) []string {
	var out []string
	for name := range m {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// TestSmoke runs all four workloads end to end and one traced run on tiny
// worlds: every code path of the harness, the daemon included, in well
// under a minute.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots the daemon; skipped with -short")
	}
	r, err := newRunner(smokeSizing)
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	sp, err := readSpec(r.root)
	if err != nil {
		t.Fatal(err)
	}
	var wantE2E, wantLayer []string
	for _, e := range sp.EndToEnd {
		wantE2E = append(wantE2E, e.Name)
	}
	for _, p := range sp.PerLayer {
		wantLayer = append(wantLayer, p.Name)
	}
	sort.Strings(wantE2E)
	sort.Strings(wantLayer)
	units := map[string]string{}
	for _, e := range sp.EndToEnd {
		units[e.Name] = e.Unit
	}
	for _, p := range sp.PerLayer {
		units[p.Name] = p.Unit
	}
	checkReport := func(name string, rep *report, want []string) {
		if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", name, rep.Correct, rep.Attempted, rep.Failed)
		}
		if got := metricNames(rep.Metrics); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: metrics\n got  %v\n want %v (BENCHMARK.json)", name, got, want)
		}
		for n, m := range rep.Metrics {
			if m.Unit != units[n] {
				t.Errorf("%s: %s reported in %q, BENCHMARK.json says %q", name, n, m.Unit, units[n])
			}
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("%s: %s = %v", name, n, m.Value)
			}
		}
	}
	for _, wl := range workloads {
		rep, _, err := r.runOne(wl, 5, time.Second, false)
		if err != nil {
			t.Fatalf("%s: %v", wl.name, err)
		}
		checkReport(wl.name, rep, wantE2E)
		for _, e := range sp.EndToEnd {
			if rep.Metrics[e.Name].Value <= 0 {
				t.Errorf("%s: %s = %v, end-to-end metrics are never 0", wl.name, e.Name, rep.Metrics[e.Name].Value)
			}
		}
	}
	rep, _, err := r.runOne(workloads[3], 5, time.Second, true)
	if err != nil {
		t.Fatalf("traced: %v", err)
	}
	checkReport("ingest-wide/traced", rep, wantLayer)
	if gap := rep.Metrics["harness.ingest_sum_gap_frac"].Value; gap > 0.05 {
		t.Errorf("ingest child spans leave %.1f%% of the root unexplained", gap*100)
	}
	if _, err := os.Stat(filepath.Join(r.root, "bench", "out", "trace-ingest-wide.jsonl")); err != nil {
		t.Error(err)
	}
}
