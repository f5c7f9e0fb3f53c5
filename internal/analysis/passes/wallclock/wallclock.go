// Package wallclock restricts time.Now() to an explicit allowlist. The
// pipeline's outputs — refined datasets, activity profiles, match
// scores, experiment tables — must be pure functions of (input corpus,
// seed, options); a time.Now() anywhere on those paths leaks the run's
// wall clock into results that are supposed to be reproducible. Places
// that legitimately need the clock stay on the allowlist: the obs
// telemetry layer (span durations and manifest timestamps — durations
// are exported as timings and never feed back into pipeline output),
// the scraper's politeness limiter and retry backoff, the
// fault-injecting darkweb server, and CLI/example progress timers. The
// obs/reqtrace subpackage is carved back OUT of the obs allowance with a
// "!" exclusion: request latencies arrive from the caller's injected
// clock, so the tracing layer itself must never read the wall clock. A
// single call site elsewhere can carry `//lint:ignore wallclock
// <reason>` instead of widening the allowlist.
package wallclock

import (
	"go/ast"

	"darklight/internal/analysis"
	"darklight/internal/analysis/astquery"
)

// DefaultAllow lists the packages allowed to read the wall clock.
const DefaultAllow = "internal/obs,!internal/obs/reqtrace,internal/scraper,internal/darkweb,cmd,examples"

var allow = analysis.NewScope(DefaultAllow)

// Analyzer is the wallclock pass.
var Analyzer = &analysis.Analyzer{
	Name: "wallclock",
	Doc: "restrict time.Now()/time.Since()/time.Until() to allowlisted packages so wall-clock time " +
		"cannot leak into pipeline output",
	Run: run,
}

func run(pass *analysis.Pass) (any, error) {
	if allow.Matches(pass.Pkg.Path()) {
		return nil, nil
	}
	pass.Preorder([]ast.Node{(*ast.CallExpr)(nil)}, func(n ast.Node) {
		call := n.(*ast.CallExpr)
		if pkg, name := astquery.PkgFunc(pass.TypesInfo, call); pkg == "time" &&
			(name == "Now" || name == "Since" || name == "Until") {
			pass.Reportf(call.Pos(),
				"time.%s reads the wall clock outside the allowlist; inject timestamps or lint:ignore with a reason", name)
		}
	})
	return nil, nil
}
