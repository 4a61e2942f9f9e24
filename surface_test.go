package repro

import (
	"fmt"
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

// frontEnds lists the exported functions TestNoUncalledExports lets through
// although no non-test Go file names them, each with the front end that
// reaches it instead: a byte golden its test renders.
var frontEnds = map[string]string{
	"internal/bench/figures.go:Figure1":       "golden internal/bench/testdata/figure1.txt (TestGoldenReports)",
	"internal/bench/figures.go:Figure3":       "golden internal/bench/testdata/figure3.txt (TestGoldenReports)",
	"internal/bench/figures.go:Figure4":       "golden internal/bench/testdata/figure4.txt (TestGoldenReports)",
	"internal/bench/figures.go:Figure5":       "golden internal/bench/testdata/figure5.txt (TestGoldenReports)",
	"internal/bench/knapsack.go:FormatTable3": "golden internal/bench/testdata/table3.txt (TestGoldenReports)",
	"internal/bench/sweep.go:FormatSweep":     "golden internal/bench/testdata/sweep.txt (TestGoldenReports)",
}

// TestNoUncalledExports keeps the library's surface to what a front end
// uses: every exported function or method declared in a non-test file under
// internal/ must have its name mentioned by a non-test .go file (cmd/,
// examples/ and benchmark/ count) other than in its own declaration. A test
// that needs to observe unexported state reads it through its package's
// export_test.go instead. The scan matches names, not resolved objects
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
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		path = filepath.ToSlash(path)
		library := strings.HasPrefix(path, "internal/")
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
		if _, ok := frontEnds[key]; ok {
			allowed[key] = true
			continue
		}
		t.Errorf("%s: exported, but no non-test Go file mentions it outside its declaration; delete it, or move it to an export_test.go if a test observes state through it", key)
	}
	for key := range frontEnds {
		if !allowed[key] {
			t.Errorf("allow-list entry %s is stale: the function is gone or has a non-test caller", key)
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
	"cmd/experiments":              "the second front end, replaced by simulator run",
	"internal/chaos/transfer.go":   "the chaos transfer runner, removed in PR 36",
	"internal/chaos":               "the second knapsack harness, removed in PR 41",
	"internal/simnet/hierarchy.go": "the parent-pointer router, replaced by the tree router in network.go",
	"cmd/nxbench":                  "the proxy measurement command, removed in PR 36",
	"examples/knapsackrun":         "the Table 4 example, removed in PR 36",
}

// TestDocsResolve keeps the prose pointing at the tree: in README, DESIGN,
// EXPERIMENTS and the verify skill, every backticked `make X` names a
// Makefile target and every backticked path under cmd/, internal/, examples/
// or scenarios/ exists (a glob must match something; a :line suffix is
// ignored). Commands — a backticked span, or a line of a fenced or indented
// code block — are checked too: `go run ./cmd/X` names an existing cmd/X,
// and a simulator or tracer invocation uses a subcommand and flags that
// binary defines (cliSurface).
func TestDocsResolve(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^([\w-]+):`).FindAllStringSubmatch(string(mk), -1) {
		targets[m[1]] = true
	}
	clis := map[string]map[string]map[string]bool{"simulator": cliSurface(t, "simulator"), "tracer": cliSurface(t, "tracer")}
	path := regexp.MustCompile(`^(cmd|internal|examples|scenarios)/`)
	used := map[string]bool{}
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		resolve := func(ref string, ok bool, src string) {
			if _, removed := removedInDocs[ref]; !ok && removed {
				used[ref] = true
			} else if !ok {
				t.Errorf("%s: `%s` does not resolve", doc, src)
			}
		}
		for _, m := range regexp.MustCompile("`([^`\n]+)`").FindAllStringSubmatch(string(text), -1) {
			words := append(strings.Fields(m[1]), "")
			switch {
			case words[0] == "make" && words[1] != "":
				resolve("make "+words[1], targets[words[1]], m[1])
			case path.MatchString(words[0]):
				ref, _, _ := strings.Cut(words[0], ":")
				matches, _ := filepath.Glob(ref)
				resolve(ref, len(matches) > 0, m[1])
			default:
				if err := checkCommand(words, clis); err != nil {
					t.Errorf("%s: `%s`: %v", doc, m[1], err)
				}
			}
		}
		for _, line := range codeLines(string(text)) {
			if err := checkCommand(append(strings.Fields(line), ""), clis); err != nil {
				t.Errorf("%s: code line %q: %v", doc, line, err)
			}
		}
	}
	for ref := range removedInDocs {
		if !used[ref] {
			t.Errorf("allow-list entry %q is stale: no doc names it, or it resolves again", ref)
		}
	}
}

// codeLines returns the lines of a markdown document's code: inside ```
// fences, or indented by a tab or four spaces outside them.
func codeLines(text string) []string {
	var out []string
	fenced := false
	for _, line := range strings.Split(text, "\n") {
		switch {
		case strings.HasPrefix(strings.TrimSpace(line), "```"):
			fenced = !fenced
		case fenced || strings.HasPrefix(line, "    ") || strings.HasPrefix(line, "\t"):
			out = append(out, line)
		}
	}
	return out
}

// checkCommand checks one command's words (ending in ""): `go run ./cmd/X`
// must name an existing cmd/X, and a simulator or tracer invocation — bare or
// through go run — a subcommand and flags that binary defines. Words from a
// shell comment, pipe or redirection on are not the command's; other words
// are not checked.
func checkCommand(words []string, clis map[string]map[string]map[string]bool) error {
	if len(words) > 3 && words[0] == "go" && words[1] == "run" && strings.HasPrefix(words[2], "./cmd/") {
		name := strings.Trim(strings.TrimPrefix(words[2], "./cmd/"), "/")
		if fi, err := os.Stat(filepath.Join("cmd", name)); err != nil || !fi.IsDir() {
			return fmt.Errorf("no cmd/%s", name)
		}
		words = append([]string{name}, words[3:]...)
	}
	subs, ok := clis[words[0]]
	if !ok || words[1] == "" {
		return nil
	}
	flags, ok := subs[words[1]]
	if !ok {
		return fmt.Errorf("%s has no subcommand %q", words[0], words[1])
	}
	for _, w := range words[2:] {
		if w == "" || strings.HasPrefix(w, "#") || strings.ContainsAny(w[:1], "|<>&;\\") {
			break
		}
		name, _, _ := strings.Cut(strings.TrimLeft(strings.Trim(w, "[]"), "-"), "=")
		if strings.HasPrefix(strings.Trim(w, "["), "-") && name != "" && !flags[name] {
			return fmt.Errorf("%s %s has no flag -%s", words[0], words[1], name)
		}
	}
	return nil
}

// cliSurface reads cmd/<name>/main.go for what the binary defines: each
// subcommand its run function switches on, mapped to the flags the function
// that case calls declares (the first string literal passed to a method of
// its flag set fs, as in fs.String("json", ...)). A case that calls no
// function of the file (help) is not a subcommand.
func cliSurface(t *testing.T, name string) map[string]map[string]bool {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), filepath.Join("cmd", name, "main.go"), nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	funcs := map[string]*ast.FuncDecl{}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok {
			funcs[fd.Name.Name] = fd
		}
	}
	flagsOf := func(fn *ast.FuncDecl) map[string]bool {
		flags := map[string]bool{}
		ast.Inspect(fn, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
					if x, ok := sel.X.(*ast.Ident); ok && x.Name == "fs" {
						for _, a := range call.Args {
							if lit, ok := a.(*ast.BasicLit); ok && lit.Kind == token.STRING {
								flags[strings.Trim(lit.Value, `"`)] = true
								break
							}
						}
					}
				}
			}
			return true
		})
		return flags
	}
	subs := map[string]map[string]bool{}
	if funcs["run"] == nil {
		t.Fatalf("cmd/%s/main.go has no run function", name)
	}
	ast.Inspect(funcs["run"], func(n ast.Node) bool {
		cc, ok := n.(*ast.CaseClause)
		if !ok {
			return true
		}
		var target *ast.FuncDecl
		ast.Inspect(cc, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if id, ok := call.Fun.(*ast.Ident); ok && funcs[id.Name] != nil {
					target = funcs[id.Name]
				}
			}
			return true
		})
		for _, e := range cc.List {
			if lit, ok := e.(*ast.BasicLit); ok && target != nil {
				subs[strings.Trim(lit.Value, `"`)] = flagsOf(target)
			}
		}
		return false
	})
	if len(subs) == 0 {
		t.Fatalf("cmd/%s/main.go: found no subcommands", name)
	}
	return subs
}
