package analysis

import (
	"go/ast"
	"go/parser"
	"strings"
	"testing"
)

// loadSynthetic type-checks one in-memory source file under pkgPath
// through the shared loader, for unit tests that need a tiny package
// with full type information.
func loadSynthetic(t *testing.T, pkgPath, src string) *Package {
	t.Helper()
	loader := sharedLoader(t)
	fname := strings.ReplaceAll(pkgPath, "/", "_") + ".go"
	f, err := parser.ParseFile(loader.Fset, fname, src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parsing synthetic %s: %v", pkgPath, err)
	}
	tpkg, info, err := loader.TypeCheck(pkgPath, []*ast.File{f})
	if err != nil {
		t.Fatalf("type-checking synthetic %s: %v", pkgPath, err)
	}
	return &Package{Path: pkgPath, Files: []*ast.File{f}, Pkg: tpkg, Info: info, fset: loader.Fset, module: loader.modulePath}
}

const cgPath = "github.com/tdgraph/tdgraph/internal/vettest/cg"

const cgSrc = `package cg

type T struct{}

func (t *T) a() {
	t.b()
	helper()
}

func (t *T) b() {}

func helper() {
	helper2()
}

func helper2() {}

func dynamic(f func()) {
	f()
}
`

func TestCallGraphEdgesAndCallers(t *testing.T) {
	pkg := loadSynthetic(t, cgPath, cgSrc)
	g := BuildCallGraph([]*Package{pkg})

	aName := "(*" + cgPath + ".T).a"
	bName := "(*" + cgPath + ".T).b"
	a := g.Funcs[aName]
	if a == nil {
		t.Fatalf("no node for %s; have %d nodes", aName, len(g.Funcs))
	}
	var callees []string
	for _, site := range a.Calls {
		callees = append(callees, site.Callee)
	}
	if len(callees) != 2 || callees[0] != bName || callees[1] != cgPath+".helper" {
		t.Fatalf("a's callees = %v, want [%s %s]", callees, bName, cgPath+".helper")
	}

	// A call through a func value has no static edge.
	if dyn := g.Funcs[cgPath+".dynamic"]; dyn == nil || len(dyn.Calls) != 0 {
		t.Fatalf("dynamic should have a node with no resolved calls, got %+v", dyn)
	}
}

func TestCallGraphReachable(t *testing.T) {
	pkg := loadSynthetic(t, cgPath, cgSrc)
	g := BuildCallGraph([]*Package{pkg})

	aName := "(*" + cgPath + ".T).a"
	reached := g.Reachable([]string{aName})
	want := map[string]string{
		aName:                   aName, // entries map to themselves
		"(*" + cgPath + ".T).b": aName,
		cgPath + ".helper":      aName,
		cgPath + ".helper2":     cgPath + ".helper",
	}
	for name, pred := range want {
		if reached[name] != pred {
			t.Errorf("reached[%s] = %q, want %q", name, reached[name], pred)
		}
	}
	if reached[cgPath+".dynamic"] != "" {
		t.Errorf("dynamic is not reachable from a, but reached[dynamic] = %q", reached[cgPath+".dynamic"])
	}
}

func TestShortFuncName(t *testing.T) {
	cases := map[string]string{
		cgPath + ".helper":      "cg.helper",
		"(*" + cgPath + ".T).a": "(*cg.T).a",
		"(" + cgPath + ".T).a":  "(cg.T).a",
		"net.Dial":              "net.Dial",
	}
	for in, want := range cases {
		if got := shortFuncName(in); got != want {
			t.Errorf("shortFuncName(%q) = %q, want %q", in, got, want)
		}
	}
}
