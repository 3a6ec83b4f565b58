package analysis

// The golden-file harness: an analysistest equivalent built on the
// stdlib. Each check has a testdata/<check> directory of Go files
// annotated with `// want `regex`` comments; the harness runs the
// check (through the same RunSuite path the driver uses, so
// suppression directives are honored) and requires an exact match
// between findings and expectations — every diagnostic must hit a
// want on its line, and every want must be hit.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

var (
	loaderOnce sync.Once
	testLoader *Loader
	loaderErr  error

	// goldenCache holds one parsed+type-checked Package per
	// (testdata dir, import path), so the suite loads each fixture
	// once no matter how many checks run against it. Before this
	// hoist every golden test re-parsed and re-type-checked its
	// package, and the suite's load work grew with the check count.
	goldenMu    sync.Mutex
	goldenCache = map[string]*Package{}
)

// sharedLoader returns one Loader per test binary so stdlib packages
// are type-checked at most once across all golden tests.
func sharedLoader(t *testing.T) *Loader {
	t.Helper()
	loaderOnce.Do(func() {
		testLoader, loaderErr = NewLoader(".")
	})
	if loaderErr != nil {
		t.Fatalf("NewLoader: %v", loaderErr)
	}
	return testLoader
}

// want is one expectation: a regexp that must match a diagnostic
// message on its file:line.
type want struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

// runGolden loads testdata/<name>, type-checks it under pkgPath, runs
// the single check through RunSuite, and matches diagnostics against
// the want comments. counters seeds the ctrreg registry.
func runGolden(t *testing.T, check *Check, name, pkgPath string, counters map[string]bool) {
	t.Helper()
	loader := sharedLoader(t)
	pkg := loadGoldenPackage(t, loader, name, pkgPath)
	wants := collectWants(t, loader.Fset, pkg.Files)
	diags := RunSuite([]*Check{check}, []*Package{pkg}, SuiteOptions{Counters: counters}).Findings

	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if w.hit || w.file != d.Position.Filename || w.line != d.Position.Line {
				continue
			}
			if w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: no diagnostic matched want %q", w.file, w.line, w.re)
		}
	}
}

// loadGoldenPackage parses and type-checks testdata/<name> under the
// given import path, caching the result per (name, pkgPath).
func loadGoldenPackage(t *testing.T, loader *Loader, name, pkgPath string) *Package {
	t.Helper()
	key := name + "\x00" + pkgPath
	goldenMu.Lock()
	defer goldenMu.Unlock()
	if pkg, ok := goldenCache[key]; ok {
		return pkg
	}
	dir := filepath.Join("testdata", name)
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading %s: %v", dir, err)
	}
	var files []*ast.File
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(loader.Fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("parsing %s: %v", e.Name(), err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		t.Fatalf("no Go files in %s", dir)
	}
	tpkg, info, terr := loader.TypeCheck(pkgPath, files)
	if terr != nil {
		t.Fatalf("type-checking %s: %v", dir, terr)
	}
	pkg := &Package{Path: pkgPath, Files: files, Pkg: tpkg, Info: info, fset: loader.Fset, module: loader.modulePath}
	goldenCache[key] = pkg
	return pkg
}

// collectWants extracts want expectations: a "// want" comment
// followed by one or more backquoted regexes.
func collectWants(t *testing.T, fset *token.FileSet, files []*ast.File) []*want {
	t.Helper()
	var wants []*want
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := c.Text
				idx := strings.Index(text, "// want ")
				if idx < 0 {
					continue
				}
				pos := fset.Position(c.Pos())
				rest := text[idx+len("// want "):]
				res := parseBackquoted(rest)
				if len(res) == 0 {
					t.Fatalf("%s:%d: malformed want comment %q (regexes go in backquotes)", pos.Filename, pos.Line, text)
				}
				for _, r := range res {
					re, err := regexp.Compile(r)
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, r, err)
					}
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return wants
}

// parseBackquoted returns the backquote-delimited segments of s.
func parseBackquoted(s string) []string {
	var out []string
	for {
		start := strings.IndexByte(s, '`')
		if start < 0 {
			return out
		}
		end := strings.IndexByte(s[start+1:], '`')
		if end < 0 {
			return out
		}
		out = append(out, s[start+1:start+1+end])
		s = s[start+2+end:]
	}
}
