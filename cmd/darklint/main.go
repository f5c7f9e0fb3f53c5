// Command darklint runs the project's own static analyzers — the
// machine-checked half of the determinism and durability contracts the
// equivalence tests pin at runtime. It is a CI gate: any unsuppressed
// diagnostic fails the build.
//
// Usage:
//
//	go run ./cmd/darklint ./...
//	go run ./cmd/darklint -only=wallclock,errdrop ./internal/...
//	go run ./cmd/darklint -json ./... > darklint.json
//
// Analyzers: atomicmix (no plain access to variables touched by
// sync/atomic), detrand (no global/time-seeded randomness in
// deterministic packages), errdrop (no silently discarded errors),
// fsyncrename (fsync before rename on every path), goleak (goroutines
// in long-lived packages must have a reachable stop signal), lockbalance
// (every Lock released on every path, no double-lock), maporder (no
// map-iteration order leaking into output), utcenforce (UTC-pinned time
// construction where the activity profiles need it), wallclock
// (time.Now only on the allowlist). Each analyzer's package scope is the
// DefaultScope (wallclock: DefaultAllow) constant in its package; no flag
// widens or narrows it. Suppress one finding with
// `//lint:ignore <analyzer> <reason>` on or above the offending line.
//
// With -json the findings are emitted as a JSON array of
// {file,line,col,analyzer,message,suppressed} objects — suppressed
// findings are included (flagged true) so tooling can audit waivers,
// but only unsuppressed findings fail the run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"darklight/internal/analysis"
	"darklight/internal/analysis/load"
	"darklight/internal/analysis/passes/atomicmix"
	"darklight/internal/analysis/passes/detrand"
	"darklight/internal/analysis/passes/errdrop"
	"darklight/internal/analysis/passes/fsyncrename"
	"darklight/internal/analysis/passes/goleak"
	"darklight/internal/analysis/passes/lockbalance"
	"darklight/internal/analysis/passes/maporder"
	"darklight/internal/analysis/passes/utcenforce"
	"darklight/internal/analysis/passes/wallclock"
)

var analyzers = []*analysis.Analyzer{
	atomicmix.Analyzer,
	detrand.Analyzer,
	errdrop.Analyzer,
	fsyncrename.Analyzer,
	goleak.Analyzer,
	lockbalance.Analyzer,
	maporder.Analyzer,
	utcenforce.Analyzer,
	wallclock.Analyzer,
}

// finding is one diagnostic; the JSON shape is the -json contract.
type finding struct {
	File       string `json:"file"`
	Line       int    `json:"line"`
	Col        int    `json:"col"`
	Analyzer   string `json:"analyzer"`
	Message    string `json:"message"`
	Suppressed bool   `json:"suppressed"`
}

func main() {
	os.Exit(runLint(os.Args[1:], os.Stdout, os.Stderr))
}

// runLint is main, factored for the golden test: it parses args, runs
// the selected analyzers, writes findings to stdout, and returns the
// process exit code (0 clean, 1 findings, 2 usage/load error).
func runLint(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("darklint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		only    = fs.String("only", "", "comma-separated analyzer names to run (default: all)")
		list    = fs.Bool("list", false, "list analyzers and exit")
		dir     = fs.String("C", "", "module root to analyze (default: current directory)")
		verbose = fs.Bool("v", false, "report per-package progress and suppressed-finding counts")
		jsonOut = fs.Bool("json", false, "emit findings as JSON (includes suppressed findings)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, a := range analyzers {
			printf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	selected := analyzers
	if *only != "" {
		byName := make(map[string]*analysis.Analyzer)
		for _, a := range analyzers {
			byName[a.Name] = a
		}
		selected = nil
		for _, name := range strings.Split(*only, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				printf(stderr, "darklint: unknown analyzer %q\n", name)
				return 2
			}
			selected = append(selected, a)
		}
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := load.Load(load.Config{Dir: *dir}, patterns...)
	if err != nil {
		printf(stderr, "darklint: %v\n", err)
		return 2
	}

	var findings []finding
	for _, pkg := range pkgs {
		if *verbose {
			printf(stderr, "darklint: %s\n", pkg.Path)
		}
		sup := analysis.NewSuppressor(pkg.Fset, pkg.Files)
		for _, a := range selected {
			pass := &analysis.Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
			}
			pass.Report = func(d analysis.Diagnostic) {
				p := pkg.Fset.Position(d.Pos)
				file := p.Filename
				if rel, err := filepath.Rel(mustGetwd(), file); err == nil && !strings.HasPrefix(rel, "..") {
					file = rel
				}
				findings = append(findings, finding{
					File:       filepath.ToSlash(file),
					Line:       p.Line,
					Col:        p.Column,
					Analyzer:   a.Name,
					Message:    d.Message,
					Suppressed: sup.Suppressed(a.Name, d.Pos),
				})
			}
			if _, err := a.Run(pass); err != nil {
				printf(stderr, "darklint: %s on %s: %v\n", a.Name, pkg.Path, err)
				return 2
			}
		}
	}

	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})

	active, suppressed := 0, 0
	for _, f := range findings {
		if f.Suppressed {
			suppressed++
		} else {
			active++
		}
	}

	if *jsonOut {
		if findings == nil {
			findings = []finding{} // `[]`, not `null`: the contract is an array
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(findings); err != nil {
			printf(stderr, "darklint: encoding findings: %v\n", err)
			return 2
		}
	} else {
		for _, f := range findings {
			if f.Suppressed {
				continue
			}
			printf(stdout, "%s:%d:%d: %s (%s)\n", f.File, f.Line, f.Col, f.Message, f.Analyzer)
		}
	}
	if *verbose && suppressed > 0 {
		printf(stderr, "darklint: %d finding(s) suppressed by lint:ignore\n", suppressed)
	}
	if active > 0 {
		printf(stderr, "darklint: %d finding(s) in %d package(s)\n", active, len(pkgs))
		return 1
	}
	return 0
}

// printf writes best-effort diagnostic output. runLint's stdout and
// stderr are os.Stdout/os.Stderr in production and buffers in the
// golden test; neither failure mode is actionable from here.
func printf(w io.Writer, format string, args ...any) {
	//lint:ignore errdrop best-effort diagnostic output to a std stream or test buffer
	fmt.Fprintf(w, format, args...)
}

func mustGetwd() string {
	wd, err := os.Getwd()
	if err != nil {
		return "."
	}
	return wd
}
