package ipls_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestNoOrphanPackages fails, naming the package, when a package under
// internal/ has no non-test importer outside itself: code that no command,
// example, benchmark or other package reaches, kept alive only by its own
// tests.
func TestNoOrphanPackages(t *testing.T) {
	const module = "ipls/"
	fset := token.NewFileSet()
	internal := map[string]bool{}
	imported := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		if strings.HasPrefix(dir, "internal/") {
			internal[dir] = true
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, spec := range f.Imports {
			p, err := strconv.Unquote(spec.Path.Value)
			if err != nil {
				return err
			}
			if pkg, ok := strings.CutPrefix(p, module); ok && pkg != dir {
				imported[pkg] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(internal) == 0 {
		t.Fatal("found no internal packages: run from the module root")
	}
	var orphans []string
	for dir := range internal {
		if !imported[dir] {
			orphans = append(orphans, dir)
		}
	}
	sort.Strings(orphans)
	for _, dir := range orphans {
		t.Errorf("%s has no non-test importer outside itself: delete it with its tests, or give it a caller", module+dir)
	}
}
