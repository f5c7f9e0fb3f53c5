// Package maporder flags map iterations whose bodies leak Go's
// randomized map order into results: appending to a slice that outlives
// the loop, accumulating floating-point sums (float addition does not
// commute bit-for-bit), or writing straight into an ordered sink. Any
// such site silently breaks the "bit-identical for any worker count"
// guarantees the ingest and matcher equivalence tests pin in features,
// attribution, and normalize.
//
// A finding is waived when the loop's effect is made deterministic right
// afterwards: the appended slice is passed to a sort.*/slices.* call
// later in the same enclosing block. Anything subtler — merging in shard
// order, key-sorted re-walks — carries a lint:ignore with its reason.
package maporder

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"darklight/internal/analysis"
	"darklight/internal/analysis/astquery"
)

// DefaultScope lists the packages under bit-identical output
// guarantees: the ingest/matcher trio the worker-invariance tests pin,
// plus every seed-driven package whose output feeds the experiment
// tables, plus the snapshot store whose serialised form must be
// byte-stable across saves of the same index.
const DefaultScope = "internal/features,internal/attribution,internal/normalize," +
	"internal/synth,internal/corpus,internal/anonymize,internal/experiments,internal/eval," +
	"internal/prefilter,internal/store"

var scope = analysis.NewScope(DefaultScope)

// Analyzer is the maporder pass.
var Analyzer = &analysis.Analyzer{
	Name: "maporder",
	Doc: "flag map-order-dependent loops (append to outer slice, float accumulation, ordered-sink " +
		"writes) unless the result is sorted immediately after",
	Run: run,
}

func run(pass *analysis.Pass) (any, error) {
	if !scope.Matches(pass.Pkg.Path()) {
		return nil, nil
	}
	pass.WithStack(func(n ast.Node, stack []ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := pass.TypesInfo.Types[rng.X]
		if !ok {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		checkBody(pass, rng, enclosingBlock(stack))
		return true
	})
	return nil, nil
}

// enclosingBlock returns the innermost block containing the node the
// stack ends at (the stack's last element is the RangeStmt itself).
func enclosingBlock(stack []ast.Node) *ast.BlockStmt {
	for i := len(stack) - 2; i >= 0; i-- {
		if b, ok := stack[i].(*ast.BlockStmt); ok {
			return b
		}
	}
	return nil
}

func checkBody(pass *analysis.Pass, rng *ast.RangeStmt, block *ast.BlockStmt) {
	info := pass.TypesInfo
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			// A nested map iteration is flagged by its own visit; don't
			// double-report its body from here.
			if tv, ok := info.Types[n.X]; ok {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					return false
				}
			}
		case *ast.AssignStmt:
			checkAssign(pass, rng, block, n)
		case *ast.SendStmt:
			pass.Reportf(n.Pos(), "send on a channel inside map iteration publishes values in random order")
		case *ast.CallExpr:
			checkSinkCall(pass, rng, n)
		}
		return true
	})
}

func checkAssign(pass *analysis.Pass, rng *ast.RangeStmt, block *ast.BlockStmt, as *ast.AssignStmt) {
	info := pass.TypesInfo
	// Compound float accumulation: sum += x, sum -= x, sum *= x …
	if as.Tok != token.ASSIGN && as.Tok != token.DEFINE && len(as.Lhs) == 1 {
		if id, ok := as.Lhs[0].(*ast.Ident); ok {
			if obj := astquery.ObjectOf(info, id); obj != nil &&
				astquery.IsFloat(obj.Type()) && astquery.DeclaredOutside(info, id, rng, rng) {
				pass.Reportf(as.Pos(),
					"floating-point accumulation over map order is not bit-stable; iterate sorted keys instead")
			}
		}
		return
	}
	// s = append(s, …) onto a slice declared outside the loop.
	for i, rhs := range as.Rhs {
		call, ok := rhs.(*ast.CallExpr)
		if !ok || !isAppend(info, call) || i >= len(as.Lhs) {
			continue
		}
		id, ok := as.Lhs[i].(*ast.Ident)
		if !ok || !astquery.DeclaredOutside(info, id, rng, rng) {
			continue
		}
		if sortedAfter(info, block, rng, astquery.ObjectOf(info, id)) {
			continue
		}
		pass.Reportf(as.Pos(),
			"append to %s inside map iteration orders it randomly; sort it afterwards or iterate sorted keys", id.Name)
	}
	// sum = sum + x spelled without the compound token.
	if as.Tok == token.ASSIGN && len(as.Lhs) == 1 && len(as.Rhs) == 1 {
		if id, ok := as.Lhs[0].(*ast.Ident); ok {
			if bin, ok := as.Rhs[0].(*ast.BinaryExpr); ok &&
				(bin.Op == token.ADD || bin.Op == token.SUB || bin.Op == token.MUL || bin.Op == token.QUO) {
				if obj := astquery.ObjectOf(info, id); obj != nil &&
					astquery.IsFloat(obj.Type()) && astquery.DeclaredOutside(info, id, rng, rng) &&
					mentions(bin, id.Name) {
					pass.Reportf(as.Pos(),
						"floating-point accumulation over map order is not bit-stable; iterate sorted keys instead")
				}
			}
		}
	}
}

// checkSinkCall flags writes into ordered sinks (io.Writer-ish methods
// and fmt.Fprint*) whose destination outlives the loop.
func checkSinkCall(pass *analysis.Pass, rng *ast.RangeStmt, call *ast.CallExpr) {
	info := pass.TypesInfo
	if pkg, name := astquery.PkgFunc(info, call); pkg == "fmt" &&
		(name == "Fprint" || name == "Fprintf" || name == "Fprintln") {
		pass.Reportf(call.Pos(), "fmt.%s inside map iteration emits lines in random order", name)
		return
	}
	recv, name := astquery.MethodCall(info, call)
	if recv == nil {
		return
	}
	switch name {
	case "WriteString", "WriteByte", "WriteRune", "Write":
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			if id, ok := sel.X.(*ast.Ident); ok && astquery.DeclaredOutside(info, id, rng, rng) {
				pass.Reportf(call.Pos(),
					"%s.%s inside map iteration writes in random order; buffer per key and sort first", id.Name, name)
			}
		}
	}
}

func isAppend(info *types.Info, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

// sortedAfter reports whether a statement after the range loop in the
// same block passes obj to a sort.* or slices.Sort* call.
func sortedAfter(info *types.Info, block *ast.BlockStmt, rng *ast.RangeStmt, obj types.Object) bool {
	if block == nil || obj == nil {
		return false
	}
	after := false
	for _, st := range block.List {
		if st == ast.Stmt(rng) {
			after = true
			continue
		}
		if !after {
			continue
		}
		found := false
		ast.Inspect(st, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isSortCall(info, call) {
				return true
			}
			for _, arg := range call.Args {
				if argMentionsObj(info, arg, obj) {
					found = true
					return false
				}
			}
			return true
		})
		if found {
			return true
		}
	}
	return false
}

// isSortCall recognises sort.*, slices.Sort*, and local helpers whose
// name starts with "sort" (the repo's sortStrings-style wrappers).
func isSortCall(info *types.Info, call *ast.CallExpr) bool {
	if pkg, name := astquery.PkgFunc(info, call); pkg != "" {
		return pkg == "sort" || (pkg == "slices" && strings.HasPrefix(name, "Sort"))
	}
	if id, ok := call.Fun.(*ast.Ident); ok {
		lower := strings.ToLower(id.Name)
		return strings.HasPrefix(lower, "sort")
	}
	return false
}

func argMentionsObj(info *types.Info, e ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && astquery.ObjectOf(info, id) == obj {
			found = true
			return false
		}
		return true
	})
	return found
}

func mentions(e ast.Expr, name string) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == name {
			found = true
			return false
		}
		return true
	})
	return found
}
