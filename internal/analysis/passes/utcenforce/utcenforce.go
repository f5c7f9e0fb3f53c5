// Package utcenforce guards the UTC alignment the paper's 24-bin daily
// activity profiles depend on (§III-C / eq. 1). In the time-handling
// packages (timeutil, activity, forum) every timestamp must be pinned to
// UTC explicitly: a stray time.Local, a time.Unix() left in local time,
// or a time.Date() built in the host zone shifts posts across hour bins
// and day boundaries depending on the machine that runs the pipeline —
// exactly the nondeterminism the equivalence tests cannot catch because
// CI and the author's laptop may share a zone.
package utcenforce

import (
	"go/ast"

	"darklight/internal/analysis"
	"darklight/internal/analysis/astquery"
)

// DefaultScope lists the packages where UTC alignment is load-bearing.
const DefaultScope = "internal/activity,internal/timeutil,internal/forum"

var scope = analysis.NewScope(DefaultScope)

// Analyzer is the utcenforce pass.
var Analyzer = &analysis.Analyzer{
	Name: "utcenforce",
	Doc: "forbid local-time construction in UTC-critical packages: no time.Local, no bare time.Unix() " +
		"without .UTC(), no time.Date() in a non-UTC location, no t.Local()",
	Run: run,
}

func run(pass *analysis.Pass) (any, error) {
	if !scope.Matches(pass.Pkg.Path()) {
		return nil, nil
	}
	pass.WithStack(func(n ast.Node, stack []ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if astquery.IsPkgSelector(pass.TypesInfo, n, "time", "Local") {
				pass.Reportf(n.Pos(), "time.Local leaks the host zone into the activity profile; use time.UTC")
			}
		case *ast.CallExpr:
			checkCall(pass, n, stack)
		}
		return true
	})
	return nil, nil
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr, stack []ast.Node) {
	info := pass.TypesInfo
	switch pkg, name := astquery.PkgFunc(info, call); {
	case pkg == "time" && (name == "Unix" || name == "UnixMilli" || name == "UnixMicro"):
		if !utcImmediately(stack) {
			pass.Reportf(call.Pos(), "time.%s returns a local-zone Time; append .UTC() before binning", name)
		}
	case pkg == "time" && name == "Date":
		if len(call.Args) == 8 && !astquery.IsPkgSelector(info, call.Args[7], "time", "UTC") && !utcImmediately(stack) {
			pass.Reportf(call.Pos(), "time.Date with a non-UTC location; pass time.UTC (or convert with .UTC())")
		}
	case pkg == "time" && name == "ParseInLocation":
		if len(call.Args) == 3 && !astquery.IsPkgSelector(info, call.Args[2], "time", "UTC") {
			pass.Reportf(call.Pos(), "time.ParseInLocation with a non-UTC location shifts timestamps by host zone")
		}
	}
	if recv, name := astquery.MethodCall(info, call); recv != nil && name == "Local" &&
		astquery.IsNamed(recv, "time", "Time") {
		pass.Reportf(call.Pos(), "Time.Local() converts into the host zone; activity bins must stay UTC")
	}
}

// utcImmediately reports whether the call under inspection is the
// receiver of an immediate .UTC() call — stack ends
// [... CallExpr(.UTC) SelectorExpr CallExpr(inspected)].
func utcImmediately(stack []ast.Node) bool {
	if len(stack) < 3 {
		return false
	}
	sel, ok := stack[len(stack)-2].(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "UTC" {
		return false
	}
	outer, ok := stack[len(stack)-3].(*ast.CallExpr)
	return ok && outer.Fun == sel
}
