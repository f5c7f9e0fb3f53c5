// Command scrape crawls a forumd instance into a JSONL dataset.
//
// Usage:
//
//	scrape -url http://127.0.0.1:8989 -out tmg.jsonl [-interval 50ms] [-workers 4] [-resume crawl.ckpt]
//
// With -resume, completed threads are journaled to the named checkpoint
// file as the crawl runs; re-running the same command after an interrupt
// (Ctrl-C, network death) picks up where the crawl stopped instead of
// refetching. Threads that stay unreachable after retries are skipped
// and summarised on stderr — the partial dataset is still written.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"time"

	"darklight"
	"darklight/internal/forum"
	"darklight/internal/obs"
	"darklight/internal/scraper"
)

func main() {
	var (
		base     = flag.String("url", "http://127.0.0.1:8989", "forum base URL")
		out      = flag.String("out", "scraped.jsonl", "output JSONL path")
		interval = flag.Duration("interval", 20*time.Millisecond, "politeness delay between requests (shared by all workers)")
		workers  = flag.Int("workers", 4, "concurrent thread fetchers")
		retries  = flag.Int("retries", 4, "retry budget per page for transient failures (-1 disables retries)")
		resume   = flag.String("resume", "", "checkpoint journal path; reused across runs to resume an interrupted crawl")
		manifest = flag.String("manifest", "", "write a run.json manifest to this path")
		obsAddr  = flag.String("obs.addr", "", "serve /metrics and /debug/pprof on this address for the crawl's duration")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var tracer *obs.Tracer
	if *manifest != "" {
		tracer = obs.NewTracer()
		ctx = obs.WithTracer(ctx, tracer)
	}
	if *obsAddr != "" {
		addr, stop, err := obs.Serve(*obsAddr, obs.Default(), log.Printf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "scrape:", err)
			os.Exit(1)
		}
		defer stop()
		log.Printf("scrape: observability on http://%s/metrics", addr)
	}

	opts := scraper.Options{
		RequestInterval: *interval,
		Workers:         *workers,
		MaxRetries:      *retries,
		CheckpointPath:  *resume,
		Logf:            log.Printf,
	}
	if *retries < 0 {
		opts.MaxRetries = scraper.NoRetries
	}
	sc := scraper.New(*base, opts)
	start := time.Now()
	dataset, err := sc.Scrape(ctx, "scraped", forum.PlatformSynthetic)
	if err != nil {
		if ctx.Err() != nil && *resume != "" {
			fmt.Fprintf(os.Stderr, "scrape: interrupted — re-run with -resume %s to continue\n", *resume)
		}
		fmt.Fprintln(os.Stderr, "scrape:", err)
		os.Exit(1)
	}
	for _, ce := range sc.Errors() {
		fmt.Fprintln(os.Stderr, "scrape: gave up on", ce.String())
	}
	if err := darklight.SaveJSONL(*out, dataset); err != nil {
		fmt.Fprintln(os.Stderr, "scrape:", err)
		os.Exit(1)
	}
	st := sc.Stats()
	log.Printf("scrape: %d aliases, %d posts from %d threads on %d boards "+
		"(%d requests, %d retries, %d threads resumed, %d failed) in %s → %s",
		dataset.Len(), st.Posts, st.Threads, st.Boards, st.Requests, st.Retries,
		st.Resumed, st.Failed, time.Since(start).Round(time.Millisecond), *out)

	if *manifest != "" {
		man := obs.NewManifest("scrape")
		man.Config = opts
		sum, err := forum.DigestJSONL(dataset)
		if err != nil {
			fmt.Fprintln(os.Stderr, "scrape:", err)
			os.Exit(1)
		}
		man.Datasets = []obs.DatasetDigest{{
			Name: dataset.Name, Aliases: dataset.Len(), Messages: dataset.TotalMessages(), SHA256: sum,
		}}
		man.Stages = tracer.Stages()
		man.Metrics = obs.Default().Snapshot()
		man.AddResult("stats", fmt.Sprintf("%+v", st))
		for _, ce := range sc.Errors() {
			man.AddResult("error:"+ce.Board+ce.Thread, ce.String())
		}
		if err := man.WriteFile(*manifest); err != nil {
			fmt.Fprintln(os.Stderr, "scrape:", err)
			os.Exit(1)
		}
		log.Printf("scrape: manifest written to %s", *manifest)
	}
}
