// Package fsyncrename enforces the write → fsync → rename durability
// discipline: a file that has been written and is then moved over its
// destination with os.Rename must have Sync() called on it on every
// path in between. Rename is atomic for the directory entry only — the
// data blocks of the temp file may still be in the page cache, so a
// crash after an unsynced rename can leave the destination pointing at
// a truncated or empty file. That is exactly the shape of PR 8's
// checkpoint-compaction bug, and store.WriteFileAtomic is the blessed
// helper that gets the order right (write, fsync, rename, fsync dir).
//
// The pass runs a must-analysis over the function's control-flow
// graph: each *os.File created in the function carries a state — clean
// (nothing written), written, or synced — joined across paths by
// "least safe wins", so a Sync on only one branch does not bless the
// other. Writes are any write-shaped method, plus passing the file to
// another call (fmt.Fprintf, io.Copy, bufio.NewWriter — whatever
// happens in there, the file can no longer be assumed clean); a write
// after a Sync demotes the state back to written. The rename's source
// is tied to the file through f.Name(), directly in the call or via a
// string variable assigned from it. Cross-function write/rename splits
// are invisible (the analysis is intraprocedural) and carry a typed
// lint:ignore with the reason.
package fsyncrename

import (
	"go/ast"
	"go/types"

	"darklight/internal/analysis"
	"darklight/internal/analysis/astquery"
	"darklight/internal/analysis/cfg"
)

// DefaultScope applies everywhere: every rename in the tree must be
// crash-safe.
const DefaultScope = "all"

var scope = analysis.NewScope(DefaultScope)

// Analyzer is the fsyncrename pass.
var Analyzer = &analysis.Analyzer{
	Name: "fsyncrename",
	Doc: "a file written and then passed to os.Rename must have Sync() on every path in between " +
		"(store.WriteFileAtomic is the blessed helper)",
	Run: run,
}

// state is ordered least-safe-first so Join can take the minimum.
type state int

const (
	written state = iota // has unsynced writes: rename here is the bug
	clean                // created, nothing written yet
	synced               // all writes flushed
)

// fileFact maps each tracked *os.File object to its durability state.
type fileFact map[types.Object]state

// writeMethods are the os.File methods that dirty the file.
var writeMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteAt": true, "ReadFrom": true, "Truncate": true,
}

type files struct {
	pass    *analysis.Pass
	aliases map[types.Object]types.Object // string var -> file object (from f.Name())
	report  bool
}

func (fl *files) Entry() fileFact { return nil }

func (fl *files) Join(a, b fileFact) fileFact {
	out := make(fileFact, len(a)+len(b))
	for k, v := range a {
		out[k] = v
	}
	for k, v := range b {
		if have, ok := out[k]; !ok || v < have {
			out[k] = v
		}
	}
	return out
}

func (fl *files) Equal(a, b fileFact) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if bv, ok := b[k]; !ok || bv != v {
			return false
		}
	}
	return true
}

func (fl *files) set(f fileFact, k types.Object, v state) fileFact {
	out := make(fileFact, len(f)+1)
	for kk, vv := range f {
		out[kk] = vv
	}
	out[k] = v
	return out
}

func (fl *files) Transfer(n ast.Node, in fileFact) fileFact {
	f := in
	info := fl.pass.TypesInfo
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit, *ast.GoStmt:
			return false
		case *ast.AssignStmt:
			// f, err := os.Create/CreateTemp/OpenFile(...) starts
			// tracking; a rebind resets to clean.
			if len(n.Rhs) == 1 {
				if call, ok := n.Rhs[0].(*ast.CallExpr); ok &&
					astquery.IsPkgCall(info, call, "os", "Create", "CreateTemp", "OpenFile") {
					if id, ok := n.Lhs[0].(*ast.Ident); ok {
						if obj := astquery.ObjectOf(info, id); obj != nil {
							f = fl.set(f, obj, clean)
						}
					}
				}
			}
		case *ast.CallExpr:
			f = fl.call(n, f)
		}
		return true
	})
	return f
}

func (fl *files) call(call *ast.CallExpr, f fileFact) fileFact {
	info := fl.pass.TypesInfo

	// os.Rename(src, dst): the check itself.
	if astquery.IsPkgCall(info, call, "os", "Rename") && len(call.Args) == 2 {
		if obj := fl.renameSource(call.Args[0], f); obj != nil && f[obj] == written {
			if fl.report {
				fl.pass.Reportf(call.Pos(),
					"os.Rename of %s without Sync() on every path since its last write; "+
						"a crash can publish a truncated file — fsync before rename or use store.WriteFileAtomic",
					obj.Name())
			}
		}
		return f
	}

	// Method call on a tracked file.
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if id, ok := sel.X.(*ast.Ident); ok {
			if obj := astquery.ObjectOf(info, id); obj != nil {
				if _, tracked := f[obj]; tracked {
					switch {
					case sel.Sel.Name == "Sync":
						return fl.set(f, obj, synced)
					case writeMethods[sel.Sel.Name]:
						return fl.set(f, obj, written)
					}
					return f // Close, Name, Stat, … leave the state alone
				}
			}
		}
	}

	// Any other call a tracked file is passed into may write it.
	for _, arg := range call.Args {
		if id, ok := arg.(*ast.Ident); ok {
			if obj := astquery.ObjectOf(info, id); obj != nil {
				if _, tracked := f[obj]; tracked {
					f = fl.set(f, obj, written)
				}
			}
		}
	}
	return f
}

// renameSource resolves os.Rename's first argument to a tracked file:
// either f.Name() inline or a string variable assigned from it.
func (fl *files) renameSource(src ast.Expr, f fileFact) types.Object {
	info := fl.pass.TypesInfo
	switch src := src.(type) {
	case *ast.Ident:
		if obj := astquery.ObjectOf(info, src); obj != nil {
			if file, ok := fl.aliases[obj]; ok {
				if _, tracked := f[file]; tracked {
					return file
				}
			}
		}
	case *ast.CallExpr:
		if sel, ok := src.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Name" {
			if id, ok := sel.X.(*ast.Ident); ok {
				if obj := astquery.ObjectOf(info, id); obj != nil {
					if _, tracked := f[obj]; tracked {
						return obj
					}
				}
			}
		}
	}
	return nil
}

// collectAliases pre-scans the body for `name := f.Name()` bindings,
// flow-insensitively; a string rebound from two different files is
// dropped as ambiguous.
func collectAliases(info *types.Info, body *ast.BlockStmt) map[types.Object]types.Object {
	aliases := make(map[types.Object]types.Object)
	ambiguous := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Name" {
			return true
		}
		fid, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		nid, ok := as.Lhs[0].(*ast.Ident)
		if !ok {
			return true
		}
		nameObj := astquery.ObjectOf(info, nid)
		fileObj := astquery.ObjectOf(info, fid)
		if nameObj == nil || fileObj == nil {
			return true
		}
		if prev, ok := aliases[nameObj]; ok && prev != fileObj {
			ambiguous[nameObj] = true
		}
		aliases[nameObj] = fileObj
		return true
	})
	for k := range ambiguous {
		delete(aliases, k)
	}
	return aliases
}

func run(pass *analysis.Pass) (any, error) {
	if !scope.Matches(pass.Pkg.Path()) {
		return nil, nil
	}
	pass.EachFuncBody(func(body *ast.BlockStmt) {
		checkBody(pass, body)
	})
	return nil, nil
}

func checkBody(pass *analysis.Pass, body *ast.BlockStmt) {
	// Cheap gate: no os.Rename in the body, nothing to prove.
	hasRename := false
	ast.Inspect(body, func(n ast.Node) bool {
		if hasRename {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok &&
			astquery.IsPkgCall(pass.TypesInfo, call, "os", "Rename") {
			hasRename = true
		}
		return true
	})
	if !hasRename {
		return
	}

	g := cfg.Build(body)
	an := &files{pass: pass, aliases: collectAliases(pass.TypesInfo, body)}
	in := cfg.Forward[fileFact](g, an)

	an.report = true
	for _, b := range g.Blocks {
		f := in[b]
		for _, n := range b.Nodes {
			f = an.Transfer(n, f)
		}
	}
	an.report = false
}
