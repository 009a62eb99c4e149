package ipls_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// sourceFile is one parsed non-test Go file of the module.
type sourceFile struct {
	dir  string // slash-separated, relative to the module root
	file *ast.File
}

// moduleFset holds the positions of moduleFiles.
var moduleFset = token.NewFileSet()

// moduleFiles parses every non-test .go file under the module root once;
// the guards below share the result.
var moduleFiles = sync.OnceValues(func() ([]sourceFile, error) {
	var files []sourceFile
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
		f, err := parser.ParseFile(moduleFset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, sourceFile{dir: filepath.ToSlash(filepath.Dir(path)), file: f})
		return nil
	})
	return files, err
})

func parsedModule(t *testing.T) []sourceFile {
	t.Helper()
	files, err := moduleFiles()
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestNoOrphanPackages fails, naming the package, when a package under
// internal/ has no non-test importer outside itself: code that no command,
// example, benchmark or other package reaches, kept alive only by its own
// tests.
func TestNoOrphanPackages(t *testing.T) {
	const module = "ipls/"
	internal := map[string]bool{}
	imported := map[string]bool{}
	for _, sf := range parsedModule(t) {
		if strings.HasPrefix(sf.dir, "internal/") {
			internal[sf.dir] = true
		}
		for _, spec := range sf.file.Imports {
			p, err := strconv.Unquote(spec.Path.Value)
			if err != nil {
				t.Fatal(err)
			}
			if pkg, ok := strings.CutPrefix(p, module); ok && pkg != sf.dir {
				imported[pkg] = true
			}
		}
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

// uncalledAllowed lists the exported functions and methods under internal/
// that no non-test code names, each with the reason it stays exported.
var uncalledAllowed = map[string]string{
	"storage.Network.CheatMerges": "fault seam: core's cheating-merge tests turn a storage node dishonest",
	"storage.Network.Partitioned": "test seam: core's scenario tests check which nodes a partition isolates",
	"pedersen.InjectCommitAlloc":  "fault seam: iplsbench's gate test injects a commit-allocation regression",
	"directory.Service.SetClock":  "test seam: core and transport tests pin the directory's t_train clock",
	"netsim.timerHeap.Less":       "container/heap calls it through heap.Interface",
	"netsim.timerHeap.Swap":       "container/heap calls it through heap.Interface",
}

// TestNoUncalledExports fails, naming pkg.Recv.Name, for each exported
// function or method under internal/ whose name no non-test file in the
// module references outside its own declaration, unless uncalledAllowed
// gives it a reason. The check goes by name, not by type: a call through
// an interface counts, and so does any use of the same name elsewhere.
func TestNoUncalledExports(t *testing.T) {
	uncalled, stale := uncalledExports(parsedModule(t), uncalledAllowed)
	for _, name := range uncalled {
		t.Errorf("%s has no non-test caller: delete it with its tests, unexport it, or list it in uncalledAllowed with a reason", name)
	}
	for _, name := range stale {
		t.Errorf("uncalledAllowed lists %s, which is not an exported function or method under internal/", name)
	}
}

// TestUncalledExportsFixture runs the scan over sources held in memory. It
// must name an uncalled exported function, method and self-recursive
// function; pass over a method called only through an interface, a
// function called from another package and an allow-listed name; and
// report an allow-list entry that names nothing, so the list cannot rot.
func TestUncalledExportsFixture(t *testing.T) {
	sources := map[string]string{
		"internal/a/a.go": `package a

type T struct{}

type Doer interface{ Do() }

func Uncalled()           {}
func (T) UncalledMethod() {}
func (T) Do()             {}
func Called()             {}
func Allowed()            {}

func Recursive(n int) {
	if n > 0 {
		Recursive(n - 1)
	}
}

func run(d Doer) { d.Do() }
`,
		"cmd/b/main.go": `package main

import "ipls/internal/a"

func main() { a.Called() }
`,
	}
	fset := token.NewFileSet()
	var files []sourceFile
	for name, src := range sources {
		f, err := parser.ParseFile(fset, name, src, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, sourceFile{dir: path.Dir(name), file: f})
	}
	uncalled, stale := uncalledExports(files, map[string]string{
		"a.Allowed": "listed",
		"a.T.Gone":  "deleted since",
	})
	if got, want := strings.Join(uncalled, " "), "a.Recursive a.T.UncalledMethod a.Uncalled"; got != want {
		t.Errorf("uncalled = %q, want %q", got, want)
	}
	if got, want := strings.Join(stale, " "), "a.T.Gone"; got != want {
		t.Errorf("stale allow-list entries = %q, want %q", got, want)
	}
}

// uncalledExports returns the exported functions and methods declared under
// internal/ whose name is referenced nowhere outside their own declaration
// and that allow does not list, and the entries of allow that name no such
// declaration. Both are sorted.
func uncalledExports(files []sourceFile, allow map[string]string) (uncalled, stale []string) {
	refs := map[string]int{}
	for _, sf := range files {
		countIdents(sf.file, refs)
	}
	declared := map[string]bool{}
	for _, sf := range files {
		if !strings.HasPrefix(sf.dir, "internal/") {
			continue
		}
		for _, d := range sf.file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() {
				continue
			}
			name := sf.file.Name.Name + "." + fd.Name.Name
			if fd.Recv != nil && len(fd.Recv.List) == 1 {
				name = sf.file.Name.Name + "." + recvName(fd.Recv.List[0].Type) + "." + fd.Name.Name
			}
			declared[name] = true
			self := map[string]int{}
			countIdents(fd, self)
			if refs[fd.Name.Name]-self[fd.Name.Name] > 0 {
				continue
			}
			if _, ok := allow[name]; !ok {
				uncalled = append(uncalled, name)
			}
		}
	}
	for name := range allow {
		if !declared[name] {
			stale = append(stale, name)
		}
	}
	sort.Strings(uncalled)
	sort.Strings(stale)
	return uncalled, stale
}

// countIdents adds every identifier under n to into, by name, except the
// names that function and method declarations introduce.
func countIdents(n ast.Node, into map[string]int) {
	var declName *ast.Ident
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			declName = n.Name
		case *ast.Ident:
			if n != declName {
				into[n.Name]++
			}
		}
		return true
	})
}

// recvName is the receiver's type name without pointer or type parameters.
func recvName(x ast.Expr) string {
	switch x := x.(type) {
	case *ast.StarExpr:
		return recvName(x.X)
	case *ast.IndexExpr:
		return recvName(x.X)
	case *ast.IndexListExpr:
		return recvName(x.X)
	case *ast.Ident:
		return x.Name
	}
	return "?"
}

// probedCapabilities are the methods a Session may still find by type
// assertion, because transport.Client lacks them: each is a one-method
// interface literal at its probe.
var probedCapabilities = map[string]bool{"GC": true, "ExpungeGradient": true, "Quarantined": true}

// TestNoBackendProbes fails, naming file and line, for each type assertion
// in internal/core or internal/storage whose operand is a backend field —
// a Session's store or dir, a Node's store, a CachedStore's backing — unless
// it sits in NewSession, which checks the session contract once, or asks
// for one of probedCapabilities. Everything else a backend offers is part
// of the interface its holder's field is typed by.
func TestNoBackendProbes(t *testing.T) {
	for _, probe := range backendProbes(moduleFset, parsedModule(t)) {
		t.Errorf("%s: widen the backend's interface instead, or check it in NewSession", probe)
	}
}

// TestBackendProbesFixture runs the probe scan over sources held in
// memory: it must flag a named-interface assertion, a type switch and a
// two-method literal on backend fields, and pass over the assertions in
// NewSession, a probed capability and an assertion on any other operand.
func TestBackendProbesFixture(t *testing.T) {
	const src = `package core

func NewSession(store Client) { _ = s.store.(full) }

func (s *Session) ok(x any) {
	_ = s.dir.(interface{ Quarantined() map[string]int })
	_ = x.(fmt.Stringer)
	_ = s.cfg.(fmt.Stringer)
}

func (s *Session) bad() {
	_ = s.store.(fetcher)
	switch s.dir.(type) {
	}
	_ = cs.backing.(interface {
		GC()
		Corrupt()
	})
}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "internal/core/x.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	got := backendProbes(fset, []sourceFile{{dir: "internal/core", file: f}})
	want := []string{
		"internal/core/x.go:12: s.store.(...)",
		"internal/core/x.go:13: s.dir.(...)",
		"internal/core/x.go:15: cs.backing.(...)",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("probes = %q, want %q", got, want)
	}
}

// backendProbes lists, as "file:line: x.field.(...)", the type
// assertions TestNoBackendProbes forbids, in file order.
func backendProbes(fset *token.FileSet, files []sourceFile) []string {
	var probes []string
	for _, sf := range files {
		if sf.dir != "internal/core" && sf.dir != "internal/storage" {
			continue
		}
		for _, d := range sf.file.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.Name == "NewSession" {
				continue
			}
			ast.Inspect(d, func(n ast.Node) bool {
				ta, ok := n.(*ast.TypeAssertExpr)
				if !ok {
					return true
				}
				sel, ok := ta.X.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				switch sel.Sel.Name {
				case "store", "dir", "backing":
				default:
					return true
				}
				if it, ok := ta.Type.(*ast.InterfaceType); ok && len(it.Methods.List) == 1 &&
					len(it.Methods.List[0].Names) == 1 && probedCapabilities[it.Methods.List[0].Names[0].Name] {
					return true
				}
				pos := fset.Position(ta.Pos())
				probes = append(probes, fmt.Sprintf("%s:%d: %s.(...)", filepath.ToSlash(pos.Filename), pos.Line, types.ExprString(sel)))
				return true
			})
		}
	}
	return probes
}
