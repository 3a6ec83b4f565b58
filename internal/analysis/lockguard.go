package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockguardCheck infers, per struct field, which mutex field of the
// same struct guards it — from majority usage across the whole module
// — and then flags accesses on paths where that guard is provably not
// held (including one level through a call, via the inherited lock
// seeds). This is the check that would have caught the isolatedSince
// race (commit 2af44cb): the field was read under pmu in one method
// while every other access held mu.
//
// Inference is deliberately conservative:
//
//   - a primary guard is adopted only when at least 2 accesses hold
//     it and they make up ≥ 75% of the field's counted accesses;
//   - a site is flagged only when it holds NONE of the acceptable
//     guards: any same-struct mutex held at ≥ 2 access sites, plus
//     any mutex held at every write site (readers may safely hold
//     any lock all writers hold — the dual-guard idiom);
//   - fields never written outside constructors are immutable after
//     publication and exempt;
//   - only ident-rooted accesses (n.field) count — derived pointers
//     and index chains are invisible to the lock-set domain;
//   - accesses on objects declared inside the enclosing function are
//     skipped entirely (the constructor exemption: a value that has
//     not escaped needs no lock);
//   - fields with sync.*/atomic.* types and channels are exempt (they
//     synchronize themselves);
//   - accesses inside sync/atomic call arguments are exempt.
func LockguardCheck() *Check {
	return &Check{
		Name: "lockguard",
		Doc:  "struct fields must be accessed under the mutex that guards them (inferred from majority usage)",
		Run:  runLockguard,
	}
}

// fieldRef identifies a struct field across type-check universes.
type fieldRef struct {
	typ   string // pkgpath.TypeName
	field string
}

// fieldAccess is one counted access site.
type fieldAccess struct {
	pkg       *Package
	pos       token.Pos
	fn        string          // enclosing function FullName, for the message
	guards    map[string]bool // single-segment lock paths held on the same base
	heldDescr string
	isWrite   bool // assignment target or inc/dec operand
}

func runLockguard(pass *Pass) {
	la := pass.Graph.LockSets()

	accesses := make(map[fieldRef][]*fieldAccess)
	for name, node := range pass.Graph.Funcs {
		collectFieldAccesses(node, la.funcs[name], accesses)
	}

	for ref, sites := range accesses {
		guard, heldN, acceptable := inferGuards(sites)
		if guard == "" {
			continue
		}
		for _, site := range sites {
			ok := false
			for g := range site.guards {
				if acceptable[g] {
					ok = true
					break
				}
			}
			if ok {
				continue
			}
			held := site.heldDescr
			if held == "" {
				held = "none"
			}
			pass.Reportf(site.pkg, site.pos,
				"field %s.%s is guarded by %s (%d/%d accesses) but %s accesses it without holding it (held: %s)",
				shortTypeName(ref.typ), ref.field, guard, heldN, len(sites), shortFuncName(site.fn), held)
		}
	}
}

// collectFieldAccesses records every counted access in one function.
func collectFieldAccesses(node *FuncNode, fl *funcLocks, out map[fieldRef][]*fieldAccess) {
	info := node.Pkg.Info
	writes := writeTargets(node.Decl.Body)
	fl.visit(func(stmt ast.Stmt, held lockSet) {
		inspectShallow(stmt, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok && isAtomicCall(info, call) {
				return false
			}
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			base, ok := ast.Unparen(sel.X).(*ast.Ident)
			if !ok {
				return true
			}
			s, ok := info.Selections[sel]
			if !ok || s.Kind() != types.FieldVal || len(s.Index()) != 1 {
				return true // method value, or promoted field through embedding
			}
			obj := info.Uses[base]
			if obj == nil {
				obj = info.Defs[base]
			}
			if _, isVar := obj.(*types.Var); !isVar {
				return true
			}
			// Constructor exemption: values born inside this function
			// have not escaped, so their fields need no lock yet.
			if obj.Pos() >= node.Decl.Body.Pos() && obj.Pos() < node.Decl.Body.End() {
				return true
			}
			tkey := namedTypeKey(s.Recv())
			if tkey == "" {
				return true
			}
			fv, ok := s.Obj().(*types.Var)
			if !ok || isSelfSynchronized(fv.Type()) {
				return true
			}
			ref := fieldRef{typ: tkey, field: sel.Sel.Name}
			acc := &fieldAccess{pkg: node.Pkg, pos: sel.Pos(), fn: node.Name,
				guards: map[string]bool{}, heldDescr: held.describe(), isWrite: writes[sel]}
			for k := range held {
				if k.base == obj && k.path != "" && !strings.Contains(k.path, ".") {
					acc.guards[k.path] = true
				}
			}
			out[ref] = append(out[ref], acc)
			return true
		})
	})
}

// inferGuards picks the primary (majority) guard for a field's sites
// plus the full acceptable-guard set. Returns "" when the field has
// no inferable guard — too few locked accesses, or no writes at all
// (immutable after construction).
func inferGuards(sites []*fieldAccess) (string, int, map[string]bool) {
	counts := make(map[string]int)
	writes := 0
	var writeGuards map[string]bool
	for _, s := range sites {
		for g := range s.guards {
			counts[g]++
		}
		if s.isWrite {
			writes++
			if writeGuards == nil {
				writeGuards = make(map[string]bool, len(s.guards))
				for g := range s.guards {
					writeGuards[g] = true
				}
			} else {
				for g := range writeGuards {
					if !s.guards[g] {
						delete(writeGuards, g)
					}
				}
			}
		}
	}
	if writes == 0 {
		return "", 0, nil // never mutated outside a constructor
	}
	var best string
	bestN := 0
	names := make([]string, 0, len(counts))
	for g := range counts {
		names = append(names, g)
	}
	sort.Strings(names) // deterministic tie-break
	for _, g := range names {
		if counts[g] > bestN {
			best, bestN = g, counts[g]
		}
	}
	if bestN < 2 || bestN*4 < len(sites)*3 {
		return "", 0, nil
	}
	acceptable := make(map[string]bool)
	for g, n := range counts {
		if n >= 2 {
			acceptable[g] = true
		}
	}
	for g := range writeGuards {
		acceptable[g] = true
	}
	return best, bestN, acceptable
}

// writeTargets collects the selector expressions that are assignment
// targets (any assign token) or inc/dec operands in the body.
func writeTargets(body *ast.BlockStmt) map[*ast.SelectorExpr]bool {
	out := map[*ast.SelectorExpr]bool{}
	mark := func(e ast.Expr) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			out[sel] = true
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				mark(lhs)
			}
		case *ast.IncDecStmt:
			mark(n.X)
		}
		return true
	})
	return out
}

// isAtomicCall reports whether call targets package sync/atomic (or a
// method of an atomic.* value).
func isAtomicCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if f, ok := info.Uses[sel.Sel].(*types.Func); ok && f.Pkg() != nil && f.Pkg().Path() == "sync/atomic" {
		return true
	}
	if s, ok := info.Selections[sel]; ok {
		if f, ok := s.Obj().(*types.Func); ok && f.Pkg() != nil && f.Pkg().Path() == "sync/atomic" {
			return true
		}
	}
	return false
}

// isSelfSynchronized reports field types that need no external guard:
// sync.* and sync/atomic.* values and channels.
func isSelfSynchronized(t types.Type) bool {
	if t == nil {
		return true
	}
	if _, ok := t.Underlying().(*types.Chan); ok {
		return true
	}
	if n, ok := trimPointer(t).(*types.Named); ok && n.Obj().Pkg() != nil {
		switch n.Obj().Pkg().Path() {
		case "sync", "sync/atomic":
			return true
		}
	}
	return false
}

// namedTypeKey renders a universe-stable key for a (possibly pointer
// to) named type: "pkgpath.Name". "" for unnamed types.
func namedTypeKey(t types.Type) string {
	if t == nil {
		return ""
	}
	n, ok := trimPointer(t).(*types.Named)
	if !ok {
		return ""
	}
	if n.Obj().Pkg() == nil {
		return n.Obj().Name()
	}
	return n.Obj().Pkg().Path() + "." + n.Obj().Name()
}

// shortTypeName strips the import path from a type key for messages.
func shortTypeName(key string) string {
	if i := strings.LastIndex(key, "/"); i >= 0 {
		return key[i+1:]
	}
	return key
}
