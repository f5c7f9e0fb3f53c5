// Command darklight is the pipeline CLI: generate synthetic corpora,
// polish raw datasets, build alter-ego ground truth, print dataset
// statistics, and link aliases across two datasets.
//
// Subcommands:
//
//	darklight gen    -out reddit.jsonl -forum reddit -scale 0.05 [-seed 1]
//	darklight polish -in raw.jsonl -out clean.jsonl
//	darklight stats  -in data.jsonl
//	darklight alterego -in data.jsonl -main main.jsonl -ae ae.jsonl
//	darklight link   -known known.jsonl -unknown unknown.jsonl
//	darklight anonymize -in mine.jsonl -out safe.jsonl
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"

	"darklight"
	"darklight/internal/corpus"
	"darklight/internal/forum"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "gen":
		err = cmdGen(os.Args[2:])
	case "polish":
		err = cmdPolish(os.Args[2:])
	case "stats":
		err = cmdStats(os.Args[2:])
	case "alterego":
		err = cmdAlterEgo(os.Args[2:])
	case "link":
		err = cmdLink(os.Args[2:])
	case "anonymize":
		err = cmdAnonymize(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "darklight: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "darklight:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: darklight <gen|polish|stats|alterego|link|anonymize> [flags]

  gen       generate a synthetic forum dataset (JSONL)
  polish    run the 12-step §III-C cleaning pipeline
  stats     print dataset statistics
  alterego  refine (§IV-D) and split into (main, alter-ego) datasets
  link      link unknown aliases against a known dataset (§IV-I)
  anonymize apply the §VI writing-style/schedule countermeasures`)
}

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	out := fs.String("out", "dataset.jsonl", "output path")
	which := fs.String("forum", "reddit", "reddit, tmg, or dm")
	scale := fs.Float64("scale", 0.05, "population scale")
	seed := fs.Uint64("seed", 1, "generator seed")
	fs.Parse(args)

	world, err := darklight.GenerateWorld(darklight.WorldConfig{Seed: *seed, Scale: *scale})
	if err != nil {
		return err
	}
	d, err := world.Forum(*which)
	if err != nil {
		return err
	}
	if err := darklight.SaveJSONL(*out, d); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d aliases, %d messages\n", *out, d.Len(), d.TotalMessages())
	return nil
}

func cmdPolish(args []string) error {
	fs := flag.NewFlagSet("polish", flag.ExitOnError)
	in := fs.String("in", "", "input JSONL")
	out := fs.String("out", "", "output JSONL")
	fs.Parse(args)
	if *in == "" || *out == "" {
		return fmt.Errorf("polish: -in and -out are required")
	}
	d, err := darklight.LoadJSONL(*in, "input", forum.PlatformSynthetic)
	if err != nil {
		return err
	}
	report := darklight.NewPipeline().Polish(d)
	fmt.Print(report.String())
	if err := darklight.SaveJSONL(*out, d); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d aliases, %d messages\n", *out, d.Len(), d.TotalMessages())
	return nil
}

func cmdStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	in := fs.String("in", "", "input JSONL")
	fs.Parse(args)
	if *in == "" {
		return fmt.Errorf("stats: -in is required")
	}
	d, err := darklight.LoadJSONL(*in, "input", forum.PlatformSynthetic)
	if err != nil {
		return err
	}
	fmt.Printf("aliases:  %d\n", d.Len())
	fmt.Printf("messages: %d\n", d.TotalMessages())
	fmt.Printf("words:    %d\n", d.TotalWords())

	counts := make([]int, d.Len())
	for i := range d.Aliases {
		counts[i] = d.Aliases[i].TotalWords()
	}
	sort.Ints(counts)
	if len(counts) > 0 {
		fmt.Printf("words/alias: min %d, median %d, p90 %d, max %d\n",
			counts[0], counts[len(counts)/2], counts[len(counts)*9/10], counts[len(counts)-1])
	}
	return nil
}

func cmdAlterEgo(args []string) error {
	fs := flag.NewFlagSet("alterego", flag.ExitOnError)
	in := fs.String("in", "", "input JSONL (polished)")
	mainOut := fs.String("main", "main.jsonl", "main dataset output")
	aeOut := fs.String("ae", "ae.jsonl", "alter-ego dataset output")
	fs.Parse(args)
	if *in == "" {
		return fmt.Errorf("alterego: -in is required")
	}
	d, err := darklight.LoadJSONL(*in, "input", forum.PlatformSynthetic)
	if err != nil {
		return err
	}
	pipe := darklight.NewPipeline()
	refined := pipe.Refine(d)
	fmt.Printf("refined: %d of %d aliases pass §IV-D thresholds (≥%d words, ≥%d timestamps)\n",
		refined.Len(), d.Len(), corpus.MinWords, corpus.MinTimestamps)
	mainDS, ae := pipe.SplitAlterEgos(refined)
	if err := darklight.SaveJSONL(*mainOut, mainDS); err != nil {
		return err
	}
	if err := darklight.SaveJSONL(*aeOut, ae); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d aliases) and %s (%d alter-egos)\n", *mainOut, mainDS.Len(), *aeOut, ae.Len())
	return nil
}

func cmdLink(args []string) error {
	fs := flag.NewFlagSet("link", flag.ExitOnError)
	knownPath := fs.String("known", "", "known dataset JSONL")
	unknownPath := fs.String("unknown", "", "unknown dataset JSONL")
	fs.Parse(args)
	if *knownPath == "" || *unknownPath == "" {
		return fmt.Errorf("link: -known and -unknown are required")
	}
	known, err := darklight.LoadJSONL(*knownPath, "known", forum.PlatformSynthetic)
	if err != nil {
		return err
	}
	unknown, err := darklight.LoadJSONL(*unknownPath, "unknown", forum.PlatformSynthetic)
	if err != nil {
		return err
	}
	matches, err := darklight.NewPipeline().Link(context.Background(), known, unknown)
	if err != nil {
		return err
	}
	sort.Slice(matches, func(i, j int) bool { return matches[i].Score > matches[j].Score })
	accepted := 0
	for _, m := range matches {
		if m.Accepted {
			accepted++
			fmt.Printf("* %.4f  %-30s -> %s\n", m.Score, m.Unknown, m.Candidate)
		}
	}
	fmt.Printf("%d of %d unknowns linked above threshold %.4f\n", accepted, len(matches), darklight.DefaultThreshold)
	return nil
}

func cmdAnonymize(args []string) error {
	fs := flag.NewFlagSet("anonymize", flag.ExitOnError)
	in := fs.String("in", "", "input JSONL")
	out := fs.String("out", "", "output JSONL")
	fs.Parse(args)
	if *in == "" || *out == "" {
		return fmt.Errorf("anonymize: -in and -out are required")
	}
	d, err := darklight.LoadJSONL(*in, "input", forum.PlatformSynthetic)
	if err != nil {
		return err
	}
	anon := darklight.Anonymize(d, darklight.DefaultAnonymizeOptions())
	if err := darklight.SaveJSONL(*out, anon); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d aliases anonymised (§VI countermeasures incl. rescheduling)\n", *out, anon.Len())
	return nil
}
