// Package analysis is a self-contained reimplementation of the core of
// golang.org/x/tools/go/analysis, sized for this repository's own linters
// (cmd/darklint). The pipeline's correctness rests on invariants nothing
// in the type system expresses — bit-identical output for any worker
// count, UTC-aligned timestamps for the 24-bin activity profiles (paper
// §III-C), seed-driven randomness, no silently dropped errors — so we
// encode them as analyzers and run them in CI.
//
// The API deliberately mirrors x/tools (Analyzer, Pass, Diagnostic, a
// testdata-driven analysistest harness) so the suite can be rebased onto
// the upstream framework without touching analyzer logic; only the
// package loader (internal/analysis/load) is bespoke, built on go/parser
// + go/types + the stdlib source importer, because this module vendors no
// third-party dependencies.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics, -only lists, and
	// lint:ignore directives. Must be a valid Go identifier.
	Name string

	// Doc is the one-paragraph help text: what invariant the analyzer
	// enforces and why the pipeline needs it.
	Doc string

	// Run applies the analyzer to one package.
	Run func(*Pass) (any, error)
}

func (a *Analyzer) String() string { return a.Name }

// Pass provides one analyzer run with a single type-checked package and a
// sink for diagnostics.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report delivers one diagnostic. The driver and the analysistest
	// harness install sinks that apply lint:ignore suppression.
	Report func(Diagnostic)
}

// Diagnostic is one finding, positioned inside Pass.Fset.
type Diagnostic struct {
	Pos      token.Pos
	Category string // analyzer name, filled in by the sink if empty
	Message  string
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Preorder visits every node of every file in depth-first preorder,
// calling fn for nodes whose concrete type matches one of the given
// example nodes (or all nodes when types is empty). It is the moral
// equivalent of the x/tools inspect.Analyzer's Preorder.
func (p *Pass) Preorder(nodeTypes []ast.Node, fn func(ast.Node)) {
	want := make(map[string]bool, len(nodeTypes))
	for _, n := range nodeTypes {
		want[fmt.Sprintf("%T", n)] = true
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				return false
			}
			if len(want) == 0 || want[fmt.Sprintf("%T", n)] {
				fn(n)
			}
			return true
		})
	}
}

// EachFuncBody visits every function body in the package: declared
// functions and every function literal. A literal's body is delivered
// in its own visit, so CFG-based passes analyze it as a separate
// function rather than inlining it into its enclosing declaration.
func (p *Pass) EachFuncBody(fn func(body *ast.BlockStmt)) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					fn(n.Body)
				}
			case *ast.FuncLit:
				fn(n.Body)
			}
			return true
		})
	}
}

// WithStack visits every node of every file in preorder, passing the
// stack of ancestor nodes (outermost first, ending at the node itself).
// Returning false from fn prunes the subtree below the node.
func (p *Pass) WithStack(fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			if !fn(n, stack) {
				// Pruned: Inspect will not deliver the matching nil, so
				// pop here.
				stack = stack[:len(stack)-1]
				return false
			}
			return true
		})
	}
}
