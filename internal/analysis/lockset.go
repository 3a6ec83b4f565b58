package analysis

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// The lock-set framework: a may-hold dataflow over the per-function
// CFG, plus one level of interprocedural inheritance through the call
// graph. lockguard and lockhold both consume it.
//
// A lock fact is (base object, field path): "the mutex reached from
// variable `n` through `.mu` is held". Keying on the types.Object of
// the base identifier — not its name — keeps facts instance-accurate
// within a function, and receiver substitution maps them across a
// call: if the caller holds {n, "mu"} at a call to n.demote(), the
// callee's frame seeds {recv(demote), "mu"}.
//
// Join is set union (may-hold): the checks flag only when a guard is
// provably NOT held on any path, so merging with union errs toward
// silence, never toward a false positive. Inherited seeds use the
// opposite: the intersection across every static call site, so a
// helper counts as guarded only when every caller holds the lock.

// lockKey identifies one mutex instance.
type lockKey struct {
	base types.Object
	path string // selector path from base ("mu", "cfg.mu"); "" = base itself
}

// lockSet is a small immutable-by-convention set of held locks.
type lockSet map[lockKey]bool

func (s lockSet) clone() lockSet {
	out := make(lockSet, len(s))
	for k := range s {
		out[k] = true
	}
	return out
}

func (s lockSet) equal(o lockSet) bool {
	if len(s) != len(o) {
		return false
	}
	for k := range s {
		if !o[k] {
			return false
		}
	}
	return true
}

// chainOf decomposes an expression into (base object, selector path):
// n.cfg.mu → (obj n, "cfg.mu"). Returns ok=false for anything that is
// not an ident-rooted selector chain (index expressions, calls,
// composite bases) — those locks fall back to position-less keys and
// never participate in guard inference.
func chainOf(info *types.Info, e ast.Expr) (types.Object, string, bool) {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if info == nil {
			return nil, "", false
		}
		obj := info.Uses[e]
		if obj == nil {
			obj = info.Defs[e]
		}
		if obj == nil {
			return nil, "", false
		}
		return obj, "", true
	case *ast.SelectorExpr:
		base, path, ok := chainOf(info, e.X)
		if !ok {
			return nil, "", false
		}
		if path == "" {
			return base, e.Sel.Name, true
		}
		return base, path + "." + e.Sel.Name, true
	case *ast.StarExpr:
		return chainOf(info, e.X)
	}
	return nil, "", false
}

// lockOp classifies a statement as a mutex acquire/release.
type lockOp struct {
	key     lockKey
	acquire bool
	read    bool // RLock/RUnlock
}

// lockOpOf recognizes `<chain>.Lock()` / `Unlock` / `RLock` /
// `RUnlock` expression statements whose method resolves into package
// sync. Deferred unlocks are intentionally NOT ops: they release at
// return, so the lock stays held for the rest of the body.
func lockOpOf(info *types.Info, s ast.Stmt) (lockOp, bool) {
	es, ok := s.(*ast.ExprStmt)
	if !ok {
		return lockOp{}, false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok || len(call.Args) != 0 {
		return lockOp{}, false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return lockOp{}, false
	}
	var acquire, read bool
	switch sel.Sel.Name {
	case "Lock":
		acquire = true
	case "RLock":
		acquire, read = true, true
	case "Unlock":
	case "RUnlock":
		read = true
	default:
		return lockOp{}, false
	}
	if !isSyncMutexMethod(info, sel) {
		return lockOp{}, false
	}
	base, path, ok := chainOf(info, sel.X)
	if !ok {
		return lockOp{}, false
	}
	return lockOp{key: lockKey{base: base, path: path}, acquire: acquire, read: read}, true
}

// isSyncMutexMethod reports whether the selected Lock/Unlock method
// belongs to sync.Mutex / sync.RWMutex (directly or via embedding).
func isSyncMutexMethod(info *types.Info, sel *ast.SelectorExpr) bool {
	if info == nil {
		return false
	}
	if s, ok := info.Selections[sel]; ok {
		if f, ok := s.Obj().(*types.Func); ok && f.Pkg() != nil && f.Pkg().Path() == "sync" {
			return true
		}
		return false
	}
	// Package-qualified or unresolved: not a mutex method.
	return false
}

// funcLocks holds the dataflow result for one function: the may-held
// lock set at entry to each CFG node.
type funcLocks struct {
	fd   *ast.FuncDecl
	cfg  *funcCFG
	in   []lockSet
	seed lockSet
}

// computeLockSets runs the gen/kill fixpoint over fd's CFG. seed is
// the set inherited from callers (nil for none).
func computeLockSets(info *types.Info, fd *ast.FuncDecl, seed lockSet) *funcLocks {
	cfg := buildCFG(fd.Body)
	fl := &funcLocks{fd: fd, cfg: cfg, in: make([]lockSet, len(cfg.nodes)), seed: seed}
	if cfg.entry == cfgExit {
		return fl
	}
	preds := make([][]int, len(cfg.nodes))
	for i, n := range cfg.nodes {
		for _, s := range n.succs {
			preds[s] = append(preds[s], i)
		}
	}
	out := make([]lockSet, len(cfg.nodes))
	entrySeed := lockSet{}
	if seed != nil {
		entrySeed = seed.clone()
	}
	work := []int{cfg.entry}
	inWork := make([]bool, len(cfg.nodes))
	inWork[cfg.entry] = true
	for len(work) > 0 {
		i := work[0]
		work = work[1:]
		inWork[i] = false
		in := lockSet{}
		if i == cfg.entry {
			in = entrySeed.clone()
		}
		for _, p := range preds[i] {
			for k := range out[p] {
				in[k] = true
			}
		}
		o := in.clone()
		if op, ok := lockOpOf(info, cfg.nodes[i].stmt); ok {
			if op.acquire {
				o[op.key] = true
			} else {
				delete(o, op.key)
			}
		}
		if fl.in[i] == nil || !fl.in[i].equal(in) || out[i] == nil || !out[i].equal(o) {
			fl.in[i] = in
			out[i] = o
			for _, s := range cfg.nodes[i].succs {
				if !inWork[s] {
					inWork[s] = true
					work = append(work, s)
				}
			}
		}
	}
	// Unreached nodes (dead code after returns) get empty sets.
	for i := range fl.in {
		if fl.in[i] == nil {
			fl.in[i] = lockSet{}
		}
	}
	return fl
}

// visit walks every CFG node with the lock set held on entry to it.
func (fl *funcLocks) visit(fn func(stmt ast.Stmt, held lockSet)) {
	for i, n := range fl.cfg.nodes {
		fn(n.stmt, fl.in[i])
	}
}

// lockAnalysis is the shared module-wide result: per-function lock
// sets with one level of caller inheritance applied.
type lockAnalysis struct {
	graph *CallGraph
	funcs map[string]*funcLocks // FullName → seeded result
}

// LockSets computes (once per CallGraph) the module lock analysis.
func (g *CallGraph) LockSets() *lockAnalysis {
	if g.locks != nil {
		return g.locks
	}
	la := &lockAnalysis{graph: g, funcs: make(map[string]*funcLocks, len(g.Funcs))}

	// Pass 1: intraprocedural sets, no inheritance.
	base := make(map[string]*funcLocks, len(g.Funcs))
	for name, node := range g.Funcs {
		base[name] = computeLockSets(node.Pkg.Info, node.Decl, nil)
	}

	// Gather receiver-relative held paths at every static call site,
	// intersected per callee: a path survives only if every caller
	// holds it at every site.
	inherited := make(map[string]map[string]bool)
	sawSite := make(map[string]bool)
	for name, node := range g.Funcs {
		fl := base[name]
		info := node.Pkg.Info
		fl.visit(func(stmt ast.Stmt, held lockSet) {
			inspectShallow(stmt, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				callee := resolveCallee(info, call)
				target := g.Funcs[callee]
				if target == nil || target.Decl.Recv == nil {
					return true
				}
				sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
				if !ok {
					return true
				}
				recvBase, recvPath, ok := chainOf(info, sel.X)
				paths := map[string]bool{}
				if ok {
					for k := range held {
						if k.base == recvBase && strings.HasPrefix(k.path, prefixDot(recvPath)) {
							paths[strings.TrimPrefix(k.path, prefixDot(recvPath))] = true
						}
					}
				}
				if !sawSite[callee] {
					sawSite[callee] = true
					inherited[callee] = paths
				} else {
					for p := range inherited[callee] {
						if !paths[p] {
							delete(inherited[callee], p)
						}
					}
				}
				return true
			})
		})
	}

	// Pass 2: re-run the dataflow with the inherited seed (one level —
	// seeds are derived from unseeded caller sets, deliberately).
	for name, node := range g.Funcs {
		paths := inherited[name]
		if len(paths) == 0 {
			la.funcs[name] = base[name]
			continue
		}
		recv := receiverObj(node)
		if recv == nil {
			la.funcs[name] = base[name]
			continue
		}
		seed := lockSet{}
		for p := range paths {
			seed[lockKey{base: recv, path: p}] = true
		}
		la.funcs[name] = computeLockSets(node.Pkg.Info, node.Decl, seed)
	}
	g.locks = la
	return la
}

// prefixDot turns a receiver path into the prefix its lock paths
// carry: "" → "", "cfg" → "cfg.".
func prefixDot(p string) string {
	if p == "" {
		return ""
	}
	return p + "."
}

// receiverObj returns the types object of a method's named receiver.
func receiverObj(node *FuncNode) types.Object {
	if node.Decl.Recv == nil || len(node.Decl.Recv.List) == 0 || len(node.Decl.Recv.List[0].Names) == 0 {
		return nil
	}
	return node.Pkg.Info.Defs[node.Decl.Recv.List[0].Names[0]]
}

// describe renders a lock set for diagnostics ("n.mu, n.pmu").
func (s lockSet) describe() string {
	var parts []string
	for k := range s {
		name := "?"
		if k.base != nil {
			name = k.base.Name()
		}
		if k.path != "" {
			name += "." + k.path
		}
		parts = append(parts, name)
	}
	sort.Strings(parts)
	return strings.Join(parts, ", ")
}
