package main

import (
	"fmt"
	"strings"
	"time"
)

// exactMetrics repeat exactly from one run to the next on the same seed:
// they are counts and sizes, not times.
var exactMetrics = []string{"snapshot_mb", "quality.precision_at_t", "quality.recall_at_t",
	"prefilter.scored_frac", "prefilter.candidates_mean", "prefilter.evictions_mean", "prefilter.lsh_recall_at_k",
	"normalize.dropped_frac", "store.bytes_per_subject", "store.bytes_per_corpus_byte"}

// runAA runs two full sets on the same binary and prints, for every
// end-to-end metric on every workload, both values, the relative gap in
// the metric's worse direction and the bound from BENCHMARK.json. It
// fails when a gap exceeds its bound or an exact metric differs.
func (r *runner) runAA(sp *spec, seed uint64, window time.Duration) error {
	first, err := r.runSet(seed, window)
	if err != nil {
		return err
	}
	second, err := r.runSet(seed, window)
	if err != nil {
		return err
	}
	var broken []string
	fmt.Printf("%-14s %-18s %12s %12s %8s %7s\n", "workload", "metric", "first", "second", "gap", "bound")
	for _, wl := range workloads {
		a, b := first[wl.name], second[wl.name]
		if !a.Correct || !b.Correct {
			broken = append(broken, wl.name+": a run failed its checks")
		}
		for _, e := range sp.EndToEnd {
			gap := worsening(a.Metrics[e.Name].Value, b.Metrics[e.Name].Value, e.Better)
			fmt.Printf("%-14s %-18s %12.4f %12.4f %+7.1f%% %6.0f%%\n", wl.name, e.Name,
				a.Metrics[e.Name].Value, b.Metrics[e.Name].Value, gap*100, e.Bound*100)
			if gap > e.Bound || -gap > e.Bound {
				broken = append(broken, fmt.Sprintf("%s %s: gap %.1f%% exceeds bound %.0f%%", wl.name, e.Name, gap*100, e.Bound*100))
			}
		}
		for _, key := range []string{wl.name, wl.name + "/traced"} {
			for _, name := range exactMetrics {
				x, ok := first[key].Metrics[name]
				if ok && x.Value != second[key].Metrics[name].Value {
					broken = append(broken, fmt.Sprintf("%s %s: %v then %v, expected to repeat exactly", key, name, x.Value, second[key].Metrics[name].Value))
				}
			}
		}
	}
	if len(broken) > 0 {
		return fmt.Errorf("A/A disagreement:\n  %s", strings.Join(broken, "\n  "))
	}
	fmt.Println("A/A: every end-to-end metric within its bound, exact metrics identical")
	return nil
}

// worsening is how much worse b is than a, as a share of a, in the
// direction the metric counts as worse; negative when b is better.
func worsening(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}
