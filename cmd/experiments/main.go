// Command experiments regenerates every table and figure of the paper's
// evaluation on a synthetic world and writes the results to stdout (and
// optionally to a markdown file consumed by EXPERIMENTS.md).
//
// Usage:
//
//	experiments [-scale 0.12] [-seed 1] [-run tab1,fig3] [-out results.md]
//	            [-manifest run.json] [-trace trace.jsonl] [-obs.addr 127.0.0.1:0]
//
// Experiment ids: tab1..tab6, fig1..fig5, tmgdm, dewhole, profile, batch.
// An unknown id is an error before any world is built.
//
// With -manifest the run writes a run.json audit artifact: configuration,
// seeds, dataset digests, per-stage span summaries, the final metric
// snapshot, and every rendered result. -trace additionally dumps the full
// span forest as JSONL; -obs.addr serves /metrics and /debug/pprof for
// the duration of the run.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"darklight/internal/experiments"
	"darklight/internal/obs"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		scale    = flag.Float64("scale", 0.12, "population scale relative to the paper's scrape")
		seed     = flag.Uint64("seed", 1, "world seed")
		only     = flag.String("run", "", "comma-separated experiment ids (default: all)")
		outPath  = flag.String("out", "", "also write results to this markdown file")
		manifest = flag.String("manifest", "", "write a run.json manifest to this path")
		trace    = flag.String("trace", "", "write the span trace as JSONL to this path")
		obsAddr  = flag.String("obs.addr", "", "serve /metrics and /debug/pprof on this address for the run's duration")
	)
	flag.Parse()

	cfg := experiments.DefaultLabConfig()
	cfg.Scale = *scale
	cfg.Seed = *seed

	list := experimentList()
	selected, err := selectExperiments(*only, list)
	if err != nil {
		return err
	}
	want := func(id string) bool { return len(selected) == 0 || selected[id] }

	var out strings.Builder
	emit := func(format string, args ...any) {
		s := fmt.Sprintf(format, args...)
		fmt.Print(s)
		out.WriteString(s)
	}

	ctx := context.Background()
	var tracer *obs.Tracer
	if *manifest != "" || *trace != "" {
		tracer = obs.NewTracer()
		ctx = obs.WithTracer(ctx, tracer)
	}
	if *obsAddr != "" {
		addr, stop, err := obs.Serve(*obsAddr, obs.Default(), func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "experiments: "+format+"\n", args...)
		})
		if err != nil {
			return err
		}
		defer stop()
		fmt.Fprintf(os.Stderr, "experiments: observability on http://%s/metrics\n", addr)
	}

	start := time.Now()
	emit("darklight experiment suite — scale %.2f, seed %d, started %s\n\n",
		*scale, *seed, time.Now().Format(time.RFC3339))

	lab, err := experiments.NewLabContext(ctx, cfg)
	if err != nil {
		return err
	}
	emit("lab ready in %s (reddit %d/%d refined, tmg %d/%d, dm %d/%d)\n\n",
		time.Since(start).Round(time.Second),
		lab.Reddit.Len(), lab.RawReddit.Len(),
		lab.TMG.Len(), lab.RawTMG.Len(),
		lab.DM.Len(), lab.RawDM.Len())

	results := make(map[string]string)
	for _, e := range list {
		if !want(e.id) {
			continue
		}
		t0 := time.Now()
		rep, err := e.run(lab)
		if err != nil {
			return fmt.Errorf("%s: %w", e.id, err)
		}
		emit("===== %s (%s) =====\n", e.id, time.Since(t0).Round(time.Millisecond))
		if rep == nil || (fmt.Stringer)(rep) == nil {
			emit("(no result)\n\n")
			continue
		}
		rendered := rep.String()
		results[e.id] = rendered
		emit("%s\n", rendered)
	}
	emit("total wall clock: %s\n", time.Since(start).Round(time.Second))

	if *outPath != "" {
		if err := os.WriteFile(*outPath, []byte(out.String()), 0o644); err != nil {
			return fmt.Errorf("write %s: %w", *outPath, err)
		}
	}
	if *manifest != "" {
		man, err := lab.Manifest(tracer)
		if err != nil {
			return err
		}
		for id, rendered := range results {
			man.AddResult(id, rendered)
		}
		if err := man.WriteFile(*manifest); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "experiments: manifest written to %s\n", *manifest)
	}
	if *trace != "" {
		if err := writeTrace(*trace, tracer); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "experiments: trace written to %s\n", *trace)
	}
	return nil
}

type experiment struct {
	id  string
	run func(*experiments.Lab) (fmt.Stringer, error)
}

// experimentList is every experiment in run order. Its ids are known before
// any lab is built, so -run can be checked first.
func experimentList() []experiment {
	var crossDark *experiments.CrossForumReport
	return []experiment{
		{"tab1", func(lab *experiments.Lab) (fmt.Stringer, error) { return lab.Table1(), nil }},
		{"fig1", func(lab *experiments.Lab) (fmt.Stringer, error) { return lab.Figure1(), nil }},
		{"tab2", func(lab *experiments.Lab) (fmt.Stringer, error) { return lab.Table2() }},
		{"tab4", func(lab *experiments.Lab) (fmt.Stringer, error) { return lab.Table4(), nil }},
		{"tab3", func(lab *experiments.Lab) (fmt.Stringer, error) { return lab.Table3() }},
		{"fig2", func(lab *experiments.Lab) (fmt.Stringer, error) { return lab.Figure2() }},
		{"tab5", func(lab *experiments.Lab) (fmt.Stringer, error) { return lab.Table5() }},
		{"tab6", func(lab *experiments.Lab) (fmt.Stringer, error) { return lab.Table6() }},
		{"fig5", func(lab *experiments.Lab) (fmt.Stringer, error) { return lab.Figure5() }},
		{"fig4", func(lab *experiments.Lab) (fmt.Stringer, error) { return lab.Figure4() }},
		{"fig3", func(lab *experiments.Lab) (fmt.Stringer, error) { return lab.Figure3() }},
		{"tmgdm", func(lab *experiments.Lab) (fmt.Stringer, error) { return lab.TMGvsDM() }},
		{"dewhole", func(lab *experiments.Lab) (fmt.Stringer, error) {
			rep, err := lab.RedditVsDarkWeb()
			crossDark = rep
			return rep, err
		}},
		{"profile", func(lab *experiments.Lab) (fmt.Stringer, error) {
			if crossDark == nil {
				var err error
				crossDark, err = lab.RedditVsDarkWeb()
				if err != nil {
					return nil, err
				}
			}
			return lab.ProfileBestMatch(crossDark), nil
		}},
		{"batch", func(lab *experiments.Lab) (fmt.Stringer, error) { return lab.BatchProcedure() }},
	}
}

// selectExperiments parses -run: a comma-separated id list, where empty
// selects every experiment. An id not in list is an error naming it and the
// valid ids.
func selectExperiments(only string, list []experiment) (map[string]bool, error) {
	valid := make([]string, len(list))
	for i, e := range list {
		valid[i] = e.id
	}
	selected := map[string]bool{}
	for _, id := range strings.Split(only, ",") {
		if id = strings.TrimSpace(id); id == "" {
			continue
		}
		if !slices.Contains(valid, id) {
			return nil, fmt.Errorf("-run: unknown experiment %q (valid: %s)", id, strings.Join(valid, ", "))
		}
		selected[id] = true
	}
	return selected, nil
}

func writeTrace(path string, tracer *obs.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tracer.WriteJSONL(f); err != nil {
		return fmt.Errorf("write %s: %w", path, errors.Join(err, f.Close()))
	}
	return f.Close()
}
