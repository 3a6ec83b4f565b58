package analysis

import (
	"go/ast"
	"go/types"
	"sort"
)

// LockorderCheck flags mutex acquisitions that can leak the lock. It
// reads the shared intraprocedural lock sets (computeLockSets over
// buildCFG) and, for every mutex whose unlock is NOT deferred, reports
//
//   - a return reached while the mutex may still be held (an early
//     return leaves it held),
//   - a call through a func-typed value (a user callback: variable,
//     field, or parameter) made while it is held — a panic in the
//     callback would leak the lock without a defer, and
//   - an acquisition in a function that never releases the mutex.
//
// The canonical safe patterns — `mu.Lock(); defer mu.Unlock()`, the
// tight `mu.Lock(); x++; mu.Unlock()` critical section, and an unlock
// on every path before its return — never flag. Closure bodies are
// left out, as lockguard and lockhold leave them out.
func LockorderCheck() *Check {
	return &Check{
		Name:      "lockorder",
		Doc:       "require defer-unlock (or a provably straight-line critical section) for every mutex acquisition",
		RunModule: runLockorder,
	}
}

func runLockorder(pass *ModulePass) {
	la := pass.Graph.LockSets()
	for name, node := range pass.Graph.Funcs {
		checkFuncLocks(pass, node, la.base[name])
	}
}

// checkFuncLocks applies the three rules to one function's lock sets.
func checkFuncLocks(pass *ModulePass, node *FuncNode, fl *funcLocks) {
	info := node.Pkg.Info
	type site struct {
		at ast.Stmt
		op lockOp
	}
	var acquires []site
	releases := map[lockOp]bool{} // keyed with acquire=false
	for _, n := range fl.cfg.nodes {
		op, ok := lockOpOf(info, n.stmt)
		switch {
		case !ok:
		case !op.acquire:
			releases[op] = true
		case !op.deferred: // `defer mu.Lock()` re-acquires on exit; it is not a site
			acquires = append(acquires, site{n.stmt, op})
		}
	}
	sort.Slice(acquires, func(i, j int) bool { return acquires[i].at.Pos() < acquires[j].at.Pos() })
	// tracked holds each mutex released inline and never by a defer,
	// with its first acquisition, which the messages cite.
	var tracked []site
	seen := map[lockKey]bool{}
	for _, a := range acquires {
		inline := lockOp{key: a.op.key, read: a.op.read}
		deferred := lockOp{key: a.op.key, read: a.op.read, deferred: true}
		switch {
		case releases[deferred]:
		case !releases[inline]:
			pass.Reportf(node.Pkg, a.at.Pos(), "%s.%s has no matching %s and no defer in this function; the mutex leaks on every path",
				a.op.key, lockName(a.op.read), unlockName(a.op.read))
		case !seen[a.op.key]:
			seen[a.op.key] = true
			tracked = append(tracked, a)
		}
	}
	for i, n := range fl.cfg.nodes {
		for _, t := range tracked {
			key, unlock := t.op.key, unlockName(t.op.read)
			if !fl.in[i][key] {
				continue
			}
			if _, ok := n.stmt.(*ast.ReturnStmt); ok {
				pass.Reportf(node.Pkg, n.stmt.Pos(), "return while %s may still be held (locked at line %d without defer %s.%s); unlock first or use defer",
					key, node.Pkg.fset.Position(t.at.Pos()).Line, key, unlock)
			}
			inspectShallow(n.stmt, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok && isFuncValueCall(info, call) {
					pass.Reportf(node.Pkg, call.Pos(), "callback invoked while %s is held without defer %s.%s; a panic in the callback leaks the lock",
						key, key, unlock)
				}
				return true
			})
		}
	}
}

func lockName(read bool) string {
	if read {
		return "RLock"
	}
	return "Lock"
}

func unlockName(read bool) string {
	if read {
		return "RUnlock"
	}
	return "Unlock"
}

// isFuncValueCall reports whether the call target is a plain
// func-typed value (variable, struct field, parameter) rather than a
// declared function, method, conversion, or builtin.
func isFuncValueCall(info *types.Info, call *ast.CallExpr) bool {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		v, ok := info.Uses[fun].(*types.Var)
		if !ok {
			return false
		}
		_, isSig := v.Type().Underlying().(*types.Signature)
		return isSig
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok && sel.Kind() == types.FieldVal {
			_, isSig := sel.Type().Underlying().(*types.Signature)
			return isSig
		}
	}
	return false
}
