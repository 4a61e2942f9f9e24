package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
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

// removedInDocs lists what TestDocsResolve lets through although it no longer
// resolves: each is named by a "removed in PR N" row or section of DESIGN.md
// that says what replaced it.
var removedInDocs = map[string]string{
	"make chaos-suite":             "the Go-side chaos suite, removed in PR 19",
	"make race-parallel":           "parallel-DES, removed in PR 20",
	"internal/sim/group.go":        "parallel-DES, removed in PR 20",
	"internal/simnet/partition.go": "parallel-DES, removed in PR 20",
	"internal/treesearch":          "the tree-search engine, removed in PR 22",
	"internal/nqueens":             "N-queens, removed in PR 22",
	"examples/nqueens":             "N-queens, removed in PR 22",
}

// TestDocsResolve keeps the prose pointing at the tree: in README, DESIGN,
// EXPERIMENTS and the verify skill, every backticked `make X` names a
// Makefile target and every backticked path under cmd/, internal/, examples/
// or scenarios/ exists (a glob must match something; a :line suffix is
// ignored).
func TestDocsResolve(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^([\w-]+):`).FindAllStringSubmatch(string(mk), -1) {
		targets[m[1]] = true
	}
	path := regexp.MustCompile(`^(cmd|internal|examples|scenarios)/`)
	used := map[string]bool{}
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range regexp.MustCompile("`([^`\n]+)`").FindAllStringSubmatch(string(text), -1) {
			words := append(strings.Fields(m[1]), "")
			var ref string
			var ok bool
			switch {
			case words[0] == "make" && words[1] != "":
				ref, ok = "make "+words[1], targets[words[1]]
			case path.MatchString(words[0]):
				ref, _, _ = strings.Cut(words[0], ":")
				matches, _ := filepath.Glob(ref)
				ok = len(matches) > 0
			default:
				continue
			}
			if _, removed := removedInDocs[ref]; !ok && removed {
				used[ref] = true
			} else if !ok {
				t.Errorf("%s: `%s` does not resolve", doc, m[1])
			}
		}
	}
	for ref := range removedInDocs {
		if !used[ref] {
			t.Errorf("allow-list entry %q is stale: no doc names it, or it resolves again", ref)
		}
	}
}
