// Package load type-checks packages of this module for analysis. It is
// the bespoke part of the internal/analysis framework: a small,
// dependency-free stand-in for go/packages that resolves module-local
// imports itself and delegates everything else (the standard library) to
// the stdlib source importer.
package load

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// Package is one type-checked package.
type Package struct {
	Path  string // import path ("darklight/internal/synth")
	Dir   string // absolute directory
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Config controls loading.
type Config struct {
	// Dir is the module root (the directory holding go.mod). Defaults to
	// the current directory.
	Dir string
}

var moduleRE = regexp.MustCompile(`(?m)^module\s+(\S+)`)

// Load resolves the patterns against the module rooted at cfg.Dir and
// returns the matching packages, type-checked, in deterministic
// (import-path) order. Supported patterns: "./..." (every package in the
// module), a directory path relative to the module root ("./internal/x"
// or "internal/x"), or a full import path ("darklight/internal/x").
// Test files are not loaded: darklint checks the shipped pipeline, and
// tests routinely use wall-clock time and ad-hoc randomness on purpose.
func Load(cfg Config, patterns ...string) ([]*Package, error) {
	root := cfg.Dir
	if root == "" {
		root = "."
	}
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modBytes, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("load: not a module root: %w", err)
	}
	m := moduleRE.FindSubmatch(modBytes)
	if m == nil {
		return nil, fmt.Errorf("load: no module line in %s/go.mod", root)
	}
	modPath := string(m[1])

	dirs, err := packageDirs(root)
	if err != nil {
		return nil, err
	}
	ld := newLoader(modPath, root, dirs)

	want := make(map[string]bool)
	for _, pat := range patterns {
		switch {
		case pat == "./..." || pat == "...":
			for path := range dirs {
				want[path] = true
			}
		default:
			rel := strings.TrimPrefix(pat, "./")
			rel = strings.TrimSuffix(rel, "/")
			var path string
			if rel == "." || rel == "" {
				path = modPath
			} else if strings.HasPrefix(rel, modPath+"/") || rel == modPath {
				path = rel
			} else {
				path = modPath + "/" + filepath.ToSlash(rel)
			}
			if _, ok := dirs[path]; !ok {
				return nil, fmt.Errorf("load: no package %q (pattern %q)", path, pat)
			}
			want[path] = true
		}
	}

	paths := make([]string, 0, len(want))
	for p := range want {
		paths = append(paths, p)
	}
	sort.Strings(paths)

	out := make([]*Package, 0, len(paths))
	for _, p := range paths {
		pkg, err := ld.load(p)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

// LoadDir type-checks the single package in dir under the given import
// path, resolving imports against the standard library only. It backs
// the analysistest harness, whose testdata packages live outside any
// module.
func LoadDir(dir, importPath string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	ld := newLoader(importPath, abs, map[string]string{importPath: abs})
	return ld.load(importPath)
}

// packageDirs maps every import path in the module to its directory,
// skipping testdata, vendor, hidden directories, and nested modules
// (any directory below the root with its own go.mod) — the same dirs the
// go tool itself ignores.
func packageDirs(root string) (map[string]string, error) {
	modBytes, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	modPath := string(moduleRE.FindSubmatch(modBytes)[1])
	dirs := make(map[string]string)
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == root {
				return nil
			}
			name := d.Name()
			if name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(d.Name(), ".go") || strings.HasSuffix(d.Name(), "_test.go") {
			return nil
		}
		dir := filepath.Dir(path)
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return err
		}
		imp := modPath
		if rel != "." {
			imp = modPath + "/" + filepath.ToSlash(rel)
		}
		dirs[imp] = dir
		return nil
	})
	if err != nil {
		return nil, err
	}
	return dirs, nil
}

// loader memoises type-checked packages and resolves imports: module
// paths from its dir map, everything else via the stdlib source
// importer (which type-checks GOROOT packages from source — no compiled
// export data or network needed).
type loader struct {
	modPath string
	root    string
	dirs    map[string]string
	fset    *token.FileSet
	std     types.Importer
	pkgs    map[string]*Package
	loading map[string]bool
}

func newLoader(modPath, root string, dirs map[string]string) *loader {
	fset := token.NewFileSet()
	return &loader{
		modPath: modPath,
		root:    root,
		dirs:    dirs,
		fset:    fset,
		std:     importer.ForCompiler(fset, "source", nil),
		pkgs:    make(map[string]*Package),
		loading: make(map[string]bool),
	}
}

// Import implements types.Importer for the type checker.
func (l *loader) Import(path string) (*types.Package, error) {
	if _, ok := l.dirs[path]; ok {
		pkg, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

func (l *loader) load(path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("load: import cycle through %q", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	dir := l.dirs[path]
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("load: no Go files in %s", dir)
	}
	sort.Slice(files, func(i, j int) bool {
		return l.fset.Position(files[i].Pos()).Filename < l.fset.Position(files[j].Pos()).Filename
	})

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("load %s: %w", path, err)
	}
	pkg := &Package{Path: path, Dir: dir, Fset: l.fset, Files: files, Types: tpkg, Info: info}
	l.pkgs[path] = pkg
	return pkg, nil
}
