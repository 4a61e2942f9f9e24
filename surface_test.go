package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// calledByStdlibOnly lists the exported functions TestNoUncalledExports lets
// through although no Go file names them: the standard library calls each
// through an interface. One reason per entry.
var calledByStdlibOnly = map[string]string{
	"internal/simnet/network.go:Swap": "container/heap calls pq.Swap through heap.Interface",
}

// TestNoUncalledExports keeps the library's surface to what something uses:
// every exported function or method declared in a non-test file under
// internal/ must have its name mentioned somewhere other than its own
// declaration — by another .go file (tests, cmd/, examples/ and benchmark/
// count) or elsewhere in its own. It matches names, not resolved objects
// (go/parser only), so it misses an unused function that shares its name with
// a used one; what it reports is dead for certain.
func TestNoUncalledExports(t *testing.T) {
	type decl struct{ file, name string }
	var decls []decl
	mentions := map[string]int{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		path = filepath.ToSlash(path)
		library := strings.HasPrefix(path, "internal/") && !strings.HasSuffix(path, "_test.go")
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if library && n.Name.IsExported() {
					decls = append(decls, decl{path, n.Name.Name})
				}
			case *ast.Ident:
				mentions[n.Name]++
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) == 0 {
		t.Fatal("found no exported functions under internal/; run from the repository root")
	}
	// Every declaration is itself one mention of its name.
	declared := map[string]int{}
	for _, d := range decls {
		declared[d.name]++
	}
	allowed := map[string]bool{}
	for _, d := range decls {
		if mentions[d.name] > declared[d.name] {
			continue
		}
		key := d.file + ":" + d.name
		if _, ok := calledByStdlibOnly[key]; ok {
			allowed[key] = true
			continue
		}
		t.Errorf("%s: exported, but no Go file mentions it outside its declaration; delete it", key)
	}
	for key := range calledByStdlibOnly {
		if !allowed[key] {
			t.Errorf("allow-list entry %s is stale: the function is gone or has a caller", key)
		}
	}
}
