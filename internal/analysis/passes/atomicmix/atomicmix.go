// Package atomicmix enforces the all-or-nothing rule of sync/atomic: a
// variable or field whose address is ever passed to a sync/atomic
// function must be accessed through sync/atomic everywhere. A plain
// read races with a concurrent atomic write (and vice versa) — the
// compiler and CPU may tear, cache, or reorder the plain access — and
// unlike a typed atomic.Int64 or atomic.Pointer, nothing in the type
// system stops the mixed access from compiling. The serve snapshot
// pointer and the limiter counters migrated to typed atomics for
// exactly this reason; this pass keeps any future raw-atomic usage
// honest, package-wide.
//
// The check is two-phase over the whole package: first collect every
// object passed by address to sync/atomic (the blessed sites), then
// flag every other plain mention of the same object. Taking the
// object's address for any non-atomic purpose counts as a plain access
// too — once &x escapes, unverifiable writes can follow.
package atomicmix

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"

	"darklight/internal/analysis"
	"darklight/internal/analysis/astquery"
)

// DefaultScope applies everywhere: mixed atomic/plain access is never
// intentional.
const DefaultScope = "all"

var scope = analysis.NewScope(DefaultScope)

// Analyzer is the atomicmix pass.
var Analyzer = &analysis.Analyzer{
	Name: "atomicmix",
	Doc: "a variable accessed via sync/atomic anywhere in the package may not also be read or " +
		"written plainly",
	Run: run,
}

func run(pass *analysis.Pass) (any, error) {
	if !scope.Matches(pass.Pkg.Path()) {
		return nil, nil
	}

	// Phase 1: every object whose address reaches sync/atomic, plus the
	// exact operand expressions of those calls (excluded from phase 2).
	atomicObjs := make(map[types.Object]token.Pos)
	blessed := make(map[ast.Expr]bool)
	pass.Preorder([]ast.Node{(*ast.CallExpr)(nil)}, func(n ast.Node) {
		call := n.(*ast.CallExpr)
		if pkg, _ := astquery.PkgFunc(pass.TypesInfo, call); pkg != "sync/atomic" {
			return
		}
		for _, arg := range call.Args {
			un, ok := arg.(*ast.UnaryExpr)
			if !ok || un.Op != token.AND {
				continue
			}
			obj := addressedObject(pass.TypesInfo, un.X)
			if obj == nil {
				continue
			}
			blessed[un.X] = true
			if _, seen := atomicObjs[obj]; !seen {
				atomicObjs[obj] = call.Pos()
			}
		}
	})
	if len(atomicObjs) == 0 {
		return nil, nil
	}

	// Phase 2: any other mention of those objects is a mixed access.
	// Field mentions arrive as SelectorExpr (reported once, then only
	// the chain prefix is re-walked so the Sel identifier is not
	// double-counted); plain variables and package-qualified vars
	// arrive as Ident.
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if sel, ok := pass.TypesInfo.Selections[n]; ok && sel.Kind() == types.FieldVal {
				if !blessed[n] {
					reportMixed(pass, atomicObjs, sel.Obj(), n.Pos())
				}
				ast.Inspect(n.X, visit)
				return false
			}
		case *ast.Ident:
			// The defining identifier (field declaration, var spec) is
			// not an access.
			if pass.TypesInfo.Defs[n] == nil && !blessed[ast.Expr(n)] {
				reportMixed(pass, atomicObjs, astquery.ObjectOf(pass.TypesInfo, n), n.Pos())
			}
		}
		return true
	}
	for _, f := range pass.Files {
		ast.Inspect(f, visit)
	}
	return nil, nil
}

// addressedObject resolves &x to x's object: a plain identifier or the
// field of a selector chain.
func addressedObject(info *types.Info, e ast.Expr) types.Object {
	switch e := e.(type) {
	case *ast.Ident:
		return astquery.ObjectOf(info, e)
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[e]; ok && sel.Kind() == types.FieldVal {
			return sel.Obj()
		}
	case *ast.IndexExpr:
		// &xs[i]: the element, not the slice, is what atomic touches;
		// element-granular tracking is out of reach, so skip.
		return nil
	}
	return nil
}

func reportMixed(pass *analysis.Pass, atomicObjs map[types.Object]token.Pos, obj types.Object, pos token.Pos) {
	firstAtomic, ok := atomicObjs[obj]
	if !ok {
		return
	}
	p := pass.Fset.Position(firstAtomic)
	pass.Reportf(pos, "%s is accessed with sync/atomic (%s:%d); this plain access races with it — "+
		"use sync/atomic everywhere or a typed atomic value", obj.Name(), filepath.Base(p.Filename), p.Line)
}
