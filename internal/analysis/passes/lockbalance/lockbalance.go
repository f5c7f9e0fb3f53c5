// Package lockbalance proves, per function, that every sync mutex
// acquisition is released on every path out of the function — by a
// deferred unlock or by an explicit unlock on each return — and that no
// path re-acquires a mutex it definitely still holds (a self-deadlock).
// The serving layer's limiter map, the scraper's stats mutex, and the
// store's journal lock are all correct today by hand-maintained
// discipline; this pass turns the discipline into a machine-checked
// invariant before ROADMAP's scatter-gather work multiplies the lock
// surface.
//
// The analysis runs on the control-flow graph (internal/analysis/cfg)
// with one fact per mutex: an interval [lo, hi] of how many
// acquisitions may/must be outstanding, joined across converging paths,
// plus the same interval net of deferred releases. A leak is reported
// when the net interval can be positive at a return or at the implicit
// function end; a double acquisition is reported only when the mutex is
// definitely held (lo > 0), so conditional lock/unlock pairs do not
// false-positive. Panic exits are exempt: a panicking goroutine is not
// expected to leave its mutexes tidy. Intraprocedural only — helpers
// that intentionally return holding a lock need a typed lint:ignore
// with the reason.
package lockbalance

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"darklight/internal/analysis"
	"darklight/internal/analysis/astquery"
	"darklight/internal/analysis/cfg"
)

// DefaultScope applies the check everywhere: a leaked or double-held
// mutex is a bug in any package.
const DefaultScope = "all"

var scope = analysis.NewScope(DefaultScope)

// Analyzer is the lockbalance pass.
var Analyzer = &analysis.Analyzer{
	Name: "lockbalance",
	Doc: "prove every sync Lock/RLock is released on all paths out of the function and never " +
		"re-acquired while definitely held",
	Run: run,
}

// lkey identifies one mutex within one function: the receiver
// expression's root object plus its printed path, and whether the
// acquisition is the read side of an RWMutex.
type lkey struct {
	root types.Object
	path string
	read bool
}

// span is a saturating [lo, hi] interval of outstanding acquisitions.
// lo is the count every path guarantees, hi the count some path may
// reach. Saturation at spanCap keeps the lattice finite for loops that
// acquire without releasing.
type span struct{ lo, hi int }

const spanCap = 2

func (s span) inc() span {
	return span{min(s.lo+1, spanCap), min(s.hi+1, spanCap)}
}

func (s span) dec() span {
	return span{max(s.lo-1, 0), max(s.hi-1, 0)}
}

// fact maps each mutex to two intervals: held ignores defers (it drives
// the double-lock check, since a deferred unlock releases nothing until
// the function exits) and net subtracts deferred releases (it drives
// the leak-at-exit check).
type fact struct {
	held map[lkey]span
	net  map[lkey]span
}

func (f fact) get(m map[lkey]span, k lkey) span {
	if m == nil {
		return span{}
	}
	return m[k]
}

// set returns a copy-on-write update; facts are shared across paths and
// must never be mutated in place.
func set(m map[lkey]span, k lkey, v span) map[lkey]span {
	out := make(map[lkey]span, len(m)+1)
	for kk, vv := range m {
		out[kk] = vv
	}
	if v == (span{}) {
		delete(out, k)
	} else {
		out[k] = v
	}
	return out
}

type locks struct {
	pass *analysis.Pass
	// report is nil during the fixpoint and set during the final
	// reporting walk, so diagnostics fire exactly once per node.
	report bool
}

func (l *locks) Entry() fact { return fact{} }

func (l *locks) Join(a, b fact) fact {
	return fact{held: joinMap(a.held, b.held), net: joinMap(a.net, b.net)}
}

func joinMap(a, b map[lkey]span) map[lkey]span {
	out := make(map[lkey]span, len(a)+len(b))
	for k, v := range a {
		out[k] = v
	}
	for k, v := range b {
		if have, ok := out[k]; ok {
			out[k] = span{min(have.lo, v.lo), max(have.hi, v.hi)}
		} else {
			out[k] = span{0, v.hi}
		}
	}
	for k, v := range out {
		if _, ok := b[k]; !ok {
			out[k] = span{0, v.hi}
		}
		if out[k] == (span{}) {
			delete(out, k)
		}
	}
	return out
}

func (l *locks) Equal(a, b fact) bool {
	return mapsEqual(a.held, b.held) && mapsEqual(a.net, b.net)
}

func mapsEqual(a, b map[lkey]span) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

func (l *locks) Transfer(n ast.Node, in fact) fact {
	f := in
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // a literal's locks are its own function's problem
		case *ast.GoStmt:
			return false // runs concurrently; not on this path
		case *ast.DeferStmt:
			f = l.deferred(n, f)
			return false
		case *ast.CallExpr:
			if k, acquire, ok := lockOp(l.pass.TypesInfo, n); ok {
				f = l.apply(n, k, acquire, f)
			}
		}
		return true
	})
	return f
}

func (l *locks) apply(call *ast.CallExpr, k lkey, acquire bool, f fact) fact {
	if acquire {
		if l.report {
			if f.get(f.held, k).lo > 0 {
				l.pass.Reportf(call.Pos(), "%s.%s() on a path where %s is already held (self-deadlock)",
					k.path, methodName(k, true), k.path)
			} else if other := (lkey{k.root, k.path, !k.read}); f.get(f.held, other).lo > 0 {
				l.pass.Reportf(call.Pos(), "%s.%s() while %s.%s() is held on the same path (self-deadlock)",
					k.path, methodName(k, true), k.path, methodName(other, true))
			}
		}
		return fact{
			held: set(f.held, k, f.get(f.held, k).inc()),
			net:  set(f.net, k, f.get(f.net, k).inc()),
		}
	}
	return fact{
		held: set(f.held, k, f.get(f.held, k).dec()),
		net:  set(f.net, k, f.get(f.net, k).dec()),
	}
}

// deferred credits unlocks scheduled with defer — either a direct
// `defer mu.Unlock()` or releases inside a deferred function literal —
// against the net interval only: they run at exit, not here.
func (l *locks) deferred(d *ast.DeferStmt, f fact) fact {
	credit := func(k lkey) {
		f = fact{held: f.held, net: set(f.net, k, f.get(f.net, k).dec())}
	}
	if k, acquire, ok := lockOp(l.pass.TypesInfo, d.Call); ok && !acquire {
		credit(k)
		return f
	}
	if lit, ok := d.Call.Fun.(*ast.FuncLit); ok {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if _, isLit := n.(*ast.FuncLit); isLit {
				return false
			}
			if call, isCall := n.(*ast.CallExpr); isCall {
				if k, acquire, ok := lockOp(l.pass.TypesInfo, call); ok && !acquire {
					credit(k)
				}
			}
			return true
		})
	}
	return f
}

// checkExit reports every mutex whose net interval can still be
// positive when the path leaves the function.
func (l *locks) checkExit(f fact, pos token.Pos, via string) {
	keys := make([]lkey, 0, len(f.net))
	for k, v := range f.net {
		if v.hi > 0 {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].path != keys[j].path {
			return keys[i].path < keys[j].path
		}
		return keys[i].read
	})
	for _, k := range keys {
		l.pass.Reportf(pos, "%s.%s() is not released on every path to this %s; unlock on all exits or defer the unlock",
			k.path, methodName(k, true), via)
	}
}

func methodName(k lkey, acquire bool) string {
	switch {
	case k.read && acquire:
		return "RLock"
	case k.read:
		return "RUnlock"
	case acquire:
		return "Lock"
	default:
		return "Unlock"
	}
}

// lockOp classifies a call as a sync acquisition or release. Matching
// goes through the method's origin object, so promoted methods of an
// embedded sync.Mutex and sync.Locker interface calls both resolve;
// TryLock/TryRLock are deliberately ignored (their acquisition is
// conditional and the result-guarded unlock pattern is fine).
func lockOp(info *types.Info, call *ast.CallExpr) (k lkey, acquire bool, ok bool) {
	fn := astquery.MethodFunc(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return lkey{}, false, false
	}
	var read bool
	switch fn.Name() {
	case "Lock":
		acquire, read = true, false
	case "Unlock":
		acquire, read = false, false
	case "RLock":
		acquire, read = true, true
	case "RUnlock":
		acquire, read = false, true
	default:
		return lkey{}, false, false
	}
	sel := call.Fun.(*ast.SelectorExpr)
	root := rootObject(info, sel.X)
	if root == nil {
		return lkey{}, false, false
	}
	return lkey{root: root, path: types.ExprString(sel.X), read: read}, acquire, true
}

// rootObject resolves the leftmost identifier of a selector chain; a
// receiver that is not a chain of plain selections (an index, a call)
// is not tracked.
func rootObject(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return astquery.ObjectOf(info, x)
		case *ast.SelectorExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		default:
			return nil
		}
	}
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
	// Cheap gate: skip the graph entirely for lock-free functions.
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if _, _, isLock := lockOp(pass.TypesInfo, call); isLock {
				found = true
			}
		}
		return true
	})
	if !found {
		return
	}

	g := cfg.Build(body)
	an := &locks{pass: pass}
	in := cfg.Forward[fact](g, an)

	// Reporting walk over the converged facts: double-locks fire at
	// their acquisition site, leaks at each return and at the implicit
	// end of the body. Panic exits are exempt.
	an.report = true
	for _, b := range g.Blocks {
		f := in[b]
		kind := b.ExitKind(g.Exit)
		for i, n := range b.Nodes {
			if ret, isRet := n.(*ast.ReturnStmt); isRet && kind == cfg.Return && i == len(b.Nodes)-1 {
				an.checkExit(f, ret.Pos(), "return")
			}
			f = an.Transfer(n, f)
		}
		if kind == cfg.FallOff {
			an.checkExit(f, body.End(), "function end")
		}
	}
	an.report = false
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
