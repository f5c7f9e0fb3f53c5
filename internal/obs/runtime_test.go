package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

// TestHistogramRejectsNaNAndNegative pins the drop-counter fix: a NaN
// observation must not turn the sum into NaN forever, and a negative
// observation must not land in the lowest bucket and drag the sum down.
// Both fail on the old Observe, which admitted every value.
func TestHistogramRejectsNaNAndNegative(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("latency_seconds", "test histogram", []float64{1, 10})
	h.Observe(0.5)
	h.Observe(math.NaN())
	h.Observe(-3)
	h.Observe(math.Inf(-1))
	h.Observe(2)

	if got := h.Count(); got != 2 {
		t.Errorf("Count = %d, want 2 (NaN/negative must not be counted)", got)
	}
	if got := h.Sum(); math.IsNaN(got) || got != 2.5 {
		t.Errorf("Sum = %v, want 2.5 (NaN/negative must not touch the sum)", got)
	}
	if got := h.drops.Value(); got != 3 {
		t.Errorf("drops = %d, want 3", got)
	}
	// The rejected values must not have reached any bucket.
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`latency_seconds_bucket{le="1"} 1`,
		`latency_seconds_bucket{le="10"} 2`,
		`latency_seconds_sum 2.5`,
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("exposition missing %q:\n%s", want, b.String())
		}
	}
}

// TestRegisterCollector: collectors run at every Snapshot in registration
// order, and re-registering a name replaces the function instead of
// stacking a second run.
func TestRegisterCollector(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("pull_gauge", "refreshed by a collector")
	runs := 0
	r.RegisterCollector("pull", func() {
		runs++
		g.Set(float64(runs))
	})
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	snap := r.Snapshot()
	if runs != 2 {
		t.Fatalf("collector ran %d times, want 2 (once per exposition)", runs)
	}
	if got := snap[0].Series[0].Value; got != 2 {
		t.Errorf("gauge = %v after second collect, want 2", got)
	}
	// Replacement: the old collector must not run again.
	r.RegisterCollector("pull", func() { g.Set(-1) })
	r.Snapshot()
	if runs != 2 {
		t.Errorf("replaced collector still ran (runs = %d)", runs)
	}
	if got := g.Value(); got != -1 {
		t.Errorf("replacement collector did not run (gauge = %v)", got)
	}
}

// TestRegisterRuntime: the runtime families exist and the collector fills
// in live values at exposition time.
func TestRegisterRuntime(t *testing.T) {
	r := NewRegistry()
	RegisterRuntime(r)
	RegisterRuntime(r) // idempotent

	byName := map[string]float64{}
	for _, fam := range r.Snapshot() {
		if len(fam.Series) == 1 {
			byName[fam.Name] = fam.Series[0].Value
		}
	}
	for _, name := range []string{
		"runtime_goroutines", "runtime_heap_alloc_bytes", "runtime_heap_sys_bytes",
		"runtime_heap_objects", "runtime_gc_runs_total",
		"runtime_gc_pause_total_seconds", "runtime_gc_last_pause_seconds",
	} {
		if _, ok := byName[name]; !ok {
			t.Errorf("missing runtime family %s", name)
		}
	}
	if byName["runtime_goroutines"] < 1 {
		t.Errorf("runtime_goroutines = %v, want >= 1", byName["runtime_goroutines"])
	}
	if byName["runtime_heap_alloc_bytes"] <= 0 {
		t.Errorf("runtime_heap_alloc_bytes = %v, want > 0", byName["runtime_heap_alloc_bytes"])
	}
}

// TestRegistryConcurrentUse hammers one registry from many goroutines —
// registrations (idempotent re-registrations included), labelled-series
// creation, increments, and expositions all interleaved — then pins the
// final exposition byte-identical to a sequentially built registry. Run
// under -race in CI; the assertion is that exposition depends only on the
// set of events, never on their interleaving.
func TestRegistryConcurrentUse(t *testing.T) {
	const workers = 8
	const perWorker = 50

	feed := func(r *Registry, w int) {
		for i := 0; i < perWorker; i++ {
			r.Counter("shared_total", "shared counter").Inc()
			r.CounterVec("by_worker_total", "per-worker counter", "worker").
				With(string(rune('a' + w))).Inc()
			r.Histogram("obs_seconds", "shared histogram", []float64{1, 10}).
				Observe(float64(i % 3))
			r.Gauge("last_gauge", "whoever writes last wins").Set(42)
		}
	}

	concurrent := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			feed(concurrent, w)
		}(w)
	}
	// Expositions race the writers; they only need to not crash and to
	// render a consistent snapshot.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := concurrent.WritePrometheus(&strings.Builder{}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()

	sequential := NewRegistry()
	for w := 0; w < workers; w++ {
		feed(sequential, w)
	}

	var got, want strings.Builder
	if err := concurrent.WritePrometheus(&got); err != nil {
		t.Fatal(err)
	}
	if err := sequential.WritePrometheus(&want); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Errorf("concurrent exposition differs from sequential:\n got:\n%s\nwant:\n%s", got.String(), want.String())
	}
}
