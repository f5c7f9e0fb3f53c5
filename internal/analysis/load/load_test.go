package load

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// moduleRoot walks up from this file to the directory holding go.mod.
func moduleRoot(t *testing.T) string {
	t.Helper()
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		t.Fatal("no caller info")
	}
	return filepath.Clean(filepath.Join(filepath.Dir(file), "..", "..", ".."))
}

func TestLoadSinglePackage(t *testing.T) {
	root := moduleRoot(t)
	pkgs, err := Load(Config{Dir: root}, "./internal/timeutil")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(pkgs))
	}
	p := pkgs[0]
	if p.Path != "darklight/internal/timeutil" {
		t.Errorf("Path = %q", p.Path)
	}
	if p.Types == nil || p.Info == nil || len(p.Files) == 0 {
		t.Fatal("package not type-checked")
	}
	if p.Types.Scope().Lookup("AlignUTC") == nil {
		t.Error("AlignUTC not found in package scope")
	}
	// Test files must be excluded: darklint checks shipped code only.
	for _, f := range p.Files {
		name := p.Fset.Position(f.Pos()).Filename
		if filepath.Base(name) == "timeutil_test.go" {
			t.Errorf("test file %s loaded", name)
		}
	}
}

func TestLoadResolvesModuleImports(t *testing.T) {
	root := moduleRoot(t)
	// corpus imports darklight/internal/{activity,forum,timeutil}; loading
	// it proves module-local import resolution works transitively.
	pkgs, err := Load(Config{Dir: root}, "internal/corpus")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 || pkgs[0].Path != "darklight/internal/corpus" {
		t.Fatalf("unexpected packages: %+v", pkgs)
	}
}

func TestLoadUnknownPattern(t *testing.T) {
	root := moduleRoot(t)
	if _, err := Load(Config{Dir: root}, "./internal/nonexistent"); err == nil {
		t.Fatal("expected error for unknown package")
	}
}

// TestLoadSkipsNestedModules: a directory below the root with its own
// go.mod is another module (bench/ in this repo); "./..." must not load
// its packages, exactly as the go tool would not.
func TestLoadSkipsNestedModules(t *testing.T) {
	root := t.TempDir()
	for path, content := range map[string]string{
		"go.mod":              "module outer\n",
		"a/a.go":              "package a\n",
		"nested/go.mod":       "module outer/nested\n",
		"nested/n.go":         "package nested\n",
		"nested/deep/deep.go": "package deep\n",
	} {
		full := filepath.Join(root, filepath.FromSlash(path))
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	pkgs, err := Load(Config{Dir: root}, "./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 || pkgs[0].Path != "outer/a" {
		t.Fatalf("loaded %+v, want only outer/a", pkgs)
	}
	if _, err := Load(Config{Dir: root}, "./nested"); err == nil {
		t.Error("a nested module's package was loadable by path")
	}
}
