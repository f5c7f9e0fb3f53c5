// Package detrand forbids nondeterministic randomness in the packages
// whose output the paper reproduction pins bit-for-bit: alter-ego splits
// (corpus), synthetic worlds (synth), pseudonym tables (anonymize), and
// the experiment harness (experiments, eval). Randomness there must flow
// from an injected *rand.Rand built on a caller-supplied seed — never
// from the process-global generator or a wall-clock seed, either of
// which turns "reproduced the paper" into numbers that drift per run.
package detrand

import (
	"go/ast"

	"darklight/internal/analysis"
	"darklight/internal/analysis/astquery"
)

// DefaultScope lists the deterministic packages (ISSUE 4 tentpole) plus
// the request-tracing layer, whose sampling draws must come from its own
// seeded splitmix64 stream rather than the global generator.
const DefaultScope = "internal/synth,internal/corpus,internal/anonymize,internal/experiments,internal/eval," +
	"internal/prefilter,internal/obs/reqtrace"

// globalFuncs are the package-level functions of math/rand (and /v2)
// that draw from the shared, unseedable-in-tests global source.
var globalFuncs = []string{
	"Int", "Intn", "Int31", "Int31n", "Int63", "Int63n",
	"Uint32", "Uint64", "Float32", "Float64",
	"ExpFloat64", "NormFloat64", "Perm", "Shuffle", "Read", "Seed",
	// math/rand/v2 spellings.
	"IntN", "Int32", "Int32N", "Int64", "Int64N",
	"Uint", "UintN", "Uint32N", "Uint64N", "N",
}

var scope = analysis.NewScope(DefaultScope)

// Analyzer is the detrand pass.
var Analyzer = &analysis.Analyzer{
	Name: "detrand",
	Doc: "forbid global math/rand functions and wall-clock-seeded sources in deterministic packages; " +
		"randomness must come from an injected, seeded *rand.Rand",
	Run: run,
}

// containsSourceCtor reports whether any argument of the call invokes a
// math/rand source constructor (which carries its own diagnostic when
// wall-clock seeded).
func containsSourceCtor(pass *analysis.Pass, call *ast.CallExpr) bool {
	for _, arg := range call.Args {
		if astquery.ContainsPkgCall(pass.TypesInfo, arg, "math/rand", "NewSource") ||
			astquery.ContainsPkgCall(pass.TypesInfo, arg, "math/rand/v2", "NewPCG", "NewChaCha8") {
			return true
		}
	}
	return false
}

func run(pass *analysis.Pass) (any, error) {
	if !scope.Matches(pass.Pkg.Path()) {
		return nil, nil
	}
	pass.Preorder([]ast.Node{(*ast.CallExpr)(nil)}, func(n ast.Node) {
		call := n.(*ast.CallExpr)
		pkg, name := astquery.PkgFunc(pass.TypesInfo, call)
		if pkg != "math/rand" && pkg != "math/rand/v2" {
			return
		}
		for _, f := range globalFuncs {
			if name == f {
				pass.Reportf(call.Pos(),
					"package-level math/rand call rand.%s uses the global source; take a seeded *rand.Rand instead", name)
				return
			}
		}
		if name == "New" || name == "NewSource" || name == "NewPCG" || name == "NewChaCha8" {
			// rand.New(rand.NewSource(time.Now()…)) reports once, on the
			// inner source constructor.
			if name == "New" && containsSourceCtor(pass, call) {
				return
			}
			if astquery.ContainsPkgCall(pass.TypesInfo, call, "time", "Now") {
				pass.Reportf(call.Pos(),
					"rand.%s seeded from time.Now() is not reproducible; inject the seed (e.g. Options.Seed)", name)
			}
		}
	})
	return nil, nil
}
