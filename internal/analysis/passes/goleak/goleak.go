// Package goleak flags goroutines started in the long-lived packages —
// the serving layer, the scraper, the store, the telemetry registry —
// that have no reachable stop signal. A goroutine in a daemon must have
// some way to learn it should exit: a receive from a ctx.Done/stop
// channel (alone or in a select), ranging over a work channel that the
// producer closes, or blocking in a Wait that the shutdown path
// releases. A spawn with none of those runs until process exit, which
// in attributed's reload-heavy lifetime means an unbounded goroutine
// (and often memory) leak.
//
// For `go func() {...}()` the literal's body is checked: the candidate
// signals are collected from the AST and then validated against the
// body's control-flow graph — a signal buried in dead code does not
// count. For `go f(x)` the callee is opaque, so the arguments stand in:
// passing a context.Context or a channel is taken as evidence the
// callee can be stopped; passing neither is flagged. Blocking calls
// that are cancelled from outside through non-channel means (closing a
// listener to unblock srv.Serve, for instance) are invisible to the
// pass and carry a typed lint:ignore naming the out-of-band stop.
package goleak

import (
	"go/ast"
	"go/token"
	"go/types"

	"darklight/internal/analysis"
	"darklight/internal/analysis/astquery"
	"darklight/internal/analysis/cfg"
)

// DefaultScope lists the long-lived packages: everything that survives
// a single request or a single pipeline run.
const DefaultScope = "internal/serve,internal/scraper,internal/store,internal/obs"

var scope = analysis.NewScope(DefaultScope)

// Analyzer is the goleak pass.
var Analyzer = &analysis.Analyzer{
	Name: "goleak",
	Doc: "goroutines in long-lived packages must have a reachable stop signal: a ctx/done-channel " +
		"receive, a range over a closable channel, or a Wait",
	Run: run,
}

func run(pass *analysis.Pass) (any, error) {
	if !scope.Matches(pass.Pkg.Path()) {
		return nil, nil
	}
	pass.Preorder([]ast.Node{(*ast.GoStmt)(nil)}, func(n ast.Node) {
		g := n.(*ast.GoStmt)
		if lit, ok := g.Call.Fun.(*ast.FuncLit); ok {
			checkLiteral(pass, g, lit)
			return
		}
		checkOpaque(pass, g)
	})
	return nil, nil
}

// checkLiteral requires a stop signal inside the goroutine body, on a
// path reachable from the spawn.
func checkLiteral(pass *analysis.Pass, g *ast.GoStmt, lit *ast.FuncLit) {
	signals := collectSignals(pass.TypesInfo, lit.Body)
	if len(signals) == 0 {
		report(pass, g)
		return
	}
	graph := cfg.Build(lit.Body)
	reach := graph.Reachable()
	for blk := range reach {
		for _, n := range blk.Nodes {
			for _, pos := range signals {
				if n.Pos() <= pos && pos < n.End() {
					return
				}
			}
		}
	}
	report(pass, g)
}

// collectSignals gathers the positions of every candidate stop signal
// in the body: channel receives (which covers select cases), ranges
// over channel-typed expressions, and calls to a method named Wait.
// Nested function literals are skipped — a signal there belongs to a
// different goroutine or call frame.
func collectSignals(info *types.Info, body *ast.BlockStmt) []token.Pos {
	var signals []token.Pos
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				signals = append(signals, n.Pos())
			}
		case *ast.RangeStmt:
			if tv, ok := info.Types[n.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					signals = append(signals, n.X.Pos())
				}
			}
		case *ast.CallExpr:
			if recv, m := astquery.MethodCall(info, n); recv != nil && m == "Wait" {
				signals = append(signals, n.Pos())
			}
		}
		return true
	})
	return signals
}

// checkOpaque handles `go f(...)`: the callee's body is out of reach,
// so accept a context or channel argument as the stop channel.
func checkOpaque(pass *analysis.Pass, g *ast.GoStmt) {
	for _, arg := range g.Call.Args {
		tv, ok := pass.TypesInfo.Types[arg]
		if !ok {
			continue
		}
		if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
			return
		}
		if astquery.IsNamed(tv.Type, "context", "Context") {
			return
		}
	}
	report(pass, g)
}

func report(pass *analysis.Pass, g *ast.GoStmt) {
	pass.Reportf(g.Pos(), "goroutine in a long-lived package has no reachable stop signal "+
		"(ctx/done-channel receive, channel range, or Wait); it will run until process exit")
}
