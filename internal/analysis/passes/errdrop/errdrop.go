// Package errdrop flags silently discarded errors — the exact bug class
// behind the PR 2 BuildSubjects fix, where a worker swallowed every
// non-ErrInsufficientTimestamps failure and the pipeline shipped partial
// subject sets as if they were complete. Two shapes are flagged: a call
// whose error result is assigned to the blank identifier (`_ = f()`,
// `v, _ := g()`), and a bare call statement that returns an error.
//
// Exemptions (deliberate, documented):
//   - deferred and go'd calls (`defer f.Close()`): the error has nowhere
//     to go; sites that must observe Close errors do so inline.
//   - fmt.Print/Printf/Println to stdout: best-effort by convention.
//   - methods on strings.Builder and bytes.Buffer, documented to never
//     return a non-nil error.
//
// Anything else that must drop an error carries a
// `//lint:ignore errdrop <reason>` directive.
package errdrop

import (
	"go/ast"
	"go/types"

	"darklight/internal/analysis"
	"darklight/internal/analysis/astquery"
)

// DefaultScope covers the whole pipeline under internal/ plus the
// public facade and commands.
const DefaultScope = "internal,cmd,darklight"

var scope = analysis.NewScope(DefaultScope)

// Analyzer is the errdrop pass.
var Analyzer = &analysis.Analyzer{
	Name: "errdrop",
	Doc:  "flag discarded error returns (blank assignment or bare call); suppress legitimate sites with lint:ignore",
	Run:  run,
}

func run(pass *analysis.Pass) (any, error) {
	if !scope.Matches(pass.Pkg.Path()) {
		return nil, nil
	}
	pass.WithStack(func(n ast.Node, stack []ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt, *ast.GoStmt:
			// The deferred/spawned call itself is exempt; its argument
			// expressions and function-literal body are still walked.
			if call := callOf(n); call != nil {
				for _, arg := range call.Args {
					walkExempt(pass, arg)
				}
				if lit, ok := call.Fun.(*ast.FuncLit); ok {
					walkExempt(pass, lit.Body)
				}
			}
			return false
		case *ast.ExprStmt:
			checkBareCall(pass, n)
		case *ast.AssignStmt:
			checkBlankAssign(pass, n)
		}
		return true
	})
	return nil, nil
}

func callOf(n ast.Node) *ast.CallExpr {
	switch n := n.(type) {
	case *ast.DeferStmt:
		return n.Call
	case *ast.GoStmt:
		return n.Call
	}
	return nil
}

// walkExempt re-enters the normal checks for subtrees of an exempted
// defer/go statement (closure bodies must not hide dropped errors).
func walkExempt(pass *analysis.Pass, root ast.Node) {
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt, *ast.GoStmt:
			return false
		case *ast.ExprStmt:
			checkBareCall(pass, n)
		case *ast.AssignStmt:
			checkBlankAssign(pass, n)
		}
		return true
	})
}

func checkBareCall(pass *analysis.Pass, st *ast.ExprStmt) {
	call, ok := st.X.(*ast.CallExpr)
	if !ok || exempt(pass, call) {
		return
	}
	if len(astquery.ErrorResults(pass.TypesInfo, call)) > 0 {
		pass.Reportf(call.Pos(), "error result of %s is silently discarded; handle it or lint:ignore with a reason", calleeName(call))
	}
}

func checkBlankAssign(pass *analysis.Pass, as *ast.AssignStmt) {
	info := pass.TypesInfo
	// Multi-value form: v, _ := g() — one call, tuple results.
	if len(as.Rhs) == 1 && len(as.Lhs) > 1 {
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok || exempt(pass, call) {
			return
		}
		for _, i := range astquery.ErrorResults(info, call) {
			if i < len(as.Lhs) && isBlank(as.Lhs[i]) {
				pass.Reportf(as.Pos(), "error result of %s assigned to _; handle it or lint:ignore with a reason", calleeName(call))
				return
			}
		}
		return
	}
	// Parallel form: _ = f(), possibly mixed with other assignments.
	for i, lhs := range as.Lhs {
		if !isBlank(lhs) || i >= len(as.Rhs) {
			continue
		}
		call, ok := as.Rhs[i].(*ast.CallExpr)
		if !ok || exempt(pass, call) {
			continue
		}
		res := astquery.ErrorResults(info, call)
		if len(res) == 1 && res[0] == 0 {
			pass.Reportf(as.Pos(), "error result of %s assigned to _; handle it or lint:ignore with a reason", calleeName(call))
		}
	}
}

func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}

// exempt reports whether the callee is on the best-effort list:
// fmt.Print* (stdout by convention), fmt.Fprint* into sinks that cannot
// fail or whose failure is unobservable (strings.Builder, bytes.Buffer,
// os.Stdout/Stderr, http.ResponseWriter), methods on those same sinks,
// and (*flag.FlagSet).Parse, whose ExitOnError default never returns.
func exempt(pass *analysis.Pass, call *ast.CallExpr) bool {
	info := pass.TypesInfo
	if pkg, name := astquery.PkgFunc(info, call); pkg == "fmt" {
		switch name {
		case "Print", "Printf", "Println":
			return true
		case "Fprint", "Fprintf", "Fprintln":
			return len(call.Args) > 0 && infallibleSink(pass, call.Args[0])
		}
	}
	if recv, name := astquery.MethodCall(info, call); recv != nil {
		if astquery.IsNamed(recv, "strings", "Builder") || astquery.IsNamed(recv, "bytes", "Buffer") ||
			astquery.IsNamed(recv, "net/http", "ResponseWriter") {
			return true
		}
		if name == "Parse" && astquery.IsNamed(recv, "flag", "FlagSet") {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && isStdStream(info, sel.X) {
			return true
		}
	}
	return false
}

// infallibleSink reports whether the expression is a writer whose Write
// never fails or whose failure cannot be acted on.
func infallibleSink(pass *analysis.Pass, e ast.Expr) bool {
	info := pass.TypesInfo
	if isStdStream(info, e) {
		return true
	}
	tv, ok := info.Types[e]
	if !ok {
		return false
	}
	t := tv.Type
	return astquery.IsNamed(t, "strings", "Builder") ||
		astquery.IsNamed(t, "bytes", "Buffer") ||
		astquery.IsNamed(t, "net/http", "ResponseWriter")
}

func isStdStream(info *types.Info, e ast.Expr) bool {
	return astquery.IsPkgSelector(info, e, "os", "Stdout") ||
		astquery.IsPkgSelector(info, e, "os", "Stderr")
}

func calleeName(call *ast.CallExpr) string {
	switch f := call.Fun.(type) {
	case *ast.Ident:
		return f.Name
	case *ast.SelectorExpr:
		if id, ok := f.X.(*ast.Ident); ok {
			return id.Name + "." + f.Sel.Name
		}
		return f.Sel.Name
	}
	return "call"
}
