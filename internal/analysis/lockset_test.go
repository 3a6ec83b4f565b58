package analysis

import (
	"go/ast"
	"testing"
)

const lsPath = "github.com/tdgraph/tdgraph/internal/vettest/ls"

const lsSrc = `package ls

import "sync"

type S struct {
	mu  sync.Mutex
	pmu sync.Mutex
	v   int
	w   int
}

func (s *S) direct() {
	s.v = 1
	s.mu.Lock()
	s.v = 2
	s.mu.Unlock()
	s.v = 3
}

func (s *S) branchy(c bool) {
	s.mu.Lock()
	if c {
		s.mu.Unlock()
		s.v = 4
		return
	}
	s.v = 5
	s.mu.Unlock()
}

func (s *S) helper() {
	s.v = 6
}

func (s *S) call1() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.helper()
}

func (s *S) call2() {
	s.mu.Lock()
	s.helper()
	s.mu.Unlock()
}

func (s *S) helper2() {
	s.w = 7
}

func (s *S) mixed() {
	s.pmu.Lock()
	defer s.pmu.Unlock()
	s.helper2()
}

func (s *S) other() {
	s.helper2()
}
`

// heldAtAssignments maps each integer literal assigned in fn to the
// lock set held at that statement, rendered by describe().
func heldAtAssignments(t *testing.T, la *lockAnalysis, name string) map[string]string {
	t.Helper()
	fl := la.funcs[name]
	if fl == nil {
		t.Fatalf("no lock info for %s", name)
	}
	out := map[string]string{}
	fl.visit(func(stmt ast.Stmt, held lockSet) {
		as, ok := stmt.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return
		}
		lit, ok := as.Rhs[0].(*ast.BasicLit)
		if !ok {
			return
		}
		out[lit.Value] = held.describe()
	})
	return out
}

func TestLockSetsIntraprocedural(t *testing.T) {
	pkg := loadTestPackage(t, lsPath, testFile{"ls.go", lsSrc})
	g := BuildCallGraph([]*Package{pkg})
	la := g.LockSets()

	direct := heldAtAssignments(t, la, "(*"+lsPath+".S).direct")
	want := map[string]string{"1": "", "2": "s.mu", "3": ""}
	for lit, held := range want {
		if direct[lit] != held {
			t.Errorf("direct: held at s.v=%s is %q, want %q", lit, direct[lit], held)
		}
	}

	// The deferred-unlock branch: an explicit early unlock clears the
	// set on that path; the fall-through keeps it.
	branchy := heldAtAssignments(t, la, "(*"+lsPath+".S).branchy")
	if branchy["4"] != "" {
		t.Errorf("branchy: held after early unlock = %q, want empty", branchy["4"])
	}
	if branchy["5"] != "s.mu" {
		t.Errorf("branchy: held on locked path = %q, want s.mu", branchy["5"])
	}
}

func TestLockSetsCallSiteSeeding(t *testing.T) {
	pkg := loadTestPackage(t, lsPath, testFile{"ls.go", lsSrc})
	g := BuildCallGraph([]*Package{pkg})
	la := g.LockSets()

	// helper's every static call site (call1, call2) holds s.mu — the
	// intersection seeds the callee, one level deep.
	helper := heldAtAssignments(t, la, "(*"+lsPath+".S).helper")
	if helper["6"] != "s.mu" {
		t.Errorf("helper: inherited held = %q, want s.mu (seeded from call1+call2)", helper["6"])
	}

	// helper2 has one caller under pmu and one under nothing: the
	// intersection is empty, so nothing is inherited.
	helper2 := heldAtAssignments(t, la, "(*"+lsPath+".S).helper2")
	if helper2["7"] != "" {
		t.Errorf("helper2: inherited held = %q, want empty (mixed call sites)", helper2["7"])
	}
}
