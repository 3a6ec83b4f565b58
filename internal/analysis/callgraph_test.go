package analysis

import (
	"testing"
)

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
	pkg := loadTestPackage(t, cgPath, testFile{"cg.go", cgSrc})
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
	pkg := loadTestPackage(t, cgPath, testFile{"cg.go", cgSrc})
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
