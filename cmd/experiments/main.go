// Command experiments regenerates every table and figure of the paper's
// evaluation on a synthetic world and writes the results to stdout (and
// optionally to a markdown file consumed by EXPERIMENTS.md).
//
// Usage:
//
//	experiments [-scale 0.12] [-seed 1] [-run tab1,fig3] [-out results.md]
//	            [-manifest run.json] [-trace trace.jsonl] [-obs.addr 127.0.0.1:0]
//
// Experiment ids: tab1..tab6, fig1..fig5, tmgdm, dewhole, profile, batch,
// prefilter.
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

	selected := map[string]bool{}
	for _, id := range strings.Split(*only, ",") {
		if id = strings.TrimSpace(id); id != "" {
			selected[id] = true
		}
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

	type experiment struct {
		id  string
		run func() (fmt.Stringer, error)
	}
	var crossDark *experiments.CrossForumReport
	list := []experiment{
		{"tab1", func() (fmt.Stringer, error) { return lab.Table1(), nil }},
		{"fig1", func() (fmt.Stringer, error) { return lab.Figure1(), nil }},
		{"tab2", func() (fmt.Stringer, error) { return lab.Table2() }},
		{"tab4", func() (fmt.Stringer, error) { return lab.Table4(), nil }},
		{"tab3", func() (fmt.Stringer, error) { return lab.Table3() }},
		{"fig2", func() (fmt.Stringer, error) { return lab.Figure2() }},
		{"tab5", func() (fmt.Stringer, error) { return lab.Table5() }},
		{"tab6", func() (fmt.Stringer, error) { return lab.Table6() }},
		{"fig5", func() (fmt.Stringer, error) { return lab.Figure5() }},
		{"fig4", func() (fmt.Stringer, error) { return lab.Figure4() }},
		{"fig3", func() (fmt.Stringer, error) { return lab.Figure3() }},
		{"tmgdm", func() (fmt.Stringer, error) { return lab.TMGvsDM() }},
		{"dewhole", func() (fmt.Stringer, error) {
			rep, err := lab.RedditVsDarkWeb()
			crossDark = rep
			return rep, err
		}},
		{"profile", func() (fmt.Stringer, error) {
			if crossDark == nil {
				var err error
				crossDark, err = lab.RedditVsDarkWeb()
				if err != nil {
					return nil, err
				}
			}
			return lab.ProfileBestMatch(crossDark), nil
		}},
		{"batch", func() (fmt.Stringer, error) { return lab.BatchProcedure() }},
		{"prefilter", func() (fmt.Stringer, error) { return lab.Prefilter() }},
	}

	results := make(map[string]string)
	for _, e := range list {
		if !want(e.id) {
			continue
		}
		t0 := time.Now()
		rep, err := e.run()
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
