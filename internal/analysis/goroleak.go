package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// GoroleakCheck enforces the Node.Close contract in the long-lived
// service packages (serve, replica, native): every goroutine launched
// there must have a provable quiescence barrier — evidence that some
// join point waits for it to exit. Accepted evidence:
//
//   - local WaitGroup: the goroutine body calls wg.Done (usually
//     deferred) on a WaitGroup declared in the launching function,
//     and the same function calls wg.Wait;
//   - field WaitGroup: the body calls recv.F.Done on a WaitGroup
//     field of the owning type, and the launcher or a Close/Stop-
//     family method of that type calls recv.F.Wait;
//   - done channel: the goroutine receives from or ranges over a
//     channel field of the owning type, and a Close/Stop-family
//     method closes that field (index expressions are unwrapped, so
//     close(s.kick[i]) joins `for range s.kick[wi]`).
//
// The owning type is the receiver of the launched method (for
// `go s.workerLoop(i)`), falling back to the receiver of the
// enclosing method for `go func(){...}()` literals.
func GoroleakCheck() *Check {
	return &Check{
		Name:      "goroleak",
		Doc:       "goroutines in serve/replica/native must be joined by a WaitGroup or a Close-signaled channel",
		RunModule: runGoroleak,
	}
}

var goroleakPkgs = []string{"internal/serve", "internal/replica", "internal/native"}

// closeFamily are the method names where a quiescence barrier is
// expected to live.
var closeFamily = map[string]bool{"Close": true, "Stop": true, "Shutdown": true, "Wait": true, "Join": true}

func runGoroleak(pass *ModulePass) {
	if pass.Graph == nil {
		return
	}
	for _, node := range pass.Graph.Funcs {
		if !pathHasAnySuffix(node.Pkg.Path, goroleakPkgs) {
			continue
		}
		node := node
		ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if !goroutineJoined(pass.Graph, node, g) {
				pass.Reportf(node.Pkg, g.Pos(),
					"goroutine has no provable quiescence barrier: join it with a WaitGroup (Done in body, Wait in the launcher or a Close/Stop method) or a channel closed by Close/Stop")
			}
			// One report per launch statement; a nested launch inside
			// the literal is the inner goroutine's own problem and is
			// found when its (literal) body is scanned — skip descent.
			return false
		})
	}
}

// goroutineJoined looks for any accepted join evidence for one go
// statement.
func goroutineJoined(g *CallGraph, launcher *FuncNode, stmt *ast.GoStmt) bool {
	info := launcher.Pkg.Info
	if info == nil {
		return true // cannot prove anything either way; stay silent
	}

	// The body to scan: a literal's body, or the launched method's body.
	var body *ast.BlockStmt
	var owner *FuncNode // launched module method, when resolvable
	if lit, ok := ast.Unparen(stmt.Call.Fun).(*ast.FuncLit); ok {
		body = lit.Body
	} else if callee := resolveCallee(info, stmt.Call); callee != "" && g.Funcs[callee] != nil {
		owner = g.Funcs[callee]
		body = owner.Decl.Body
	} else {
		return false // dynamic or out-of-module target: unprovable
	}
	bodyInfo := info
	if owner != nil {
		bodyInfo = owner.Pkg.Info
	}
	recv := bodyRecvObj(owner, launcher)

	// WaitGroup evidence: find a sync Done call in the body.
	if base, path, ok := waitGroupDoneChain(bodyInfo, body); ok {
		if path == "" {
			// (a) plain wg.Done() on a variable captured from the
			// launching function, joined by wg.Wait() there.
			if owner == nil && localObj(launcher.Decl, base) &&
				callsOnFieldPath(info, launcher.Decl.Body, base, "", "Wait") {
				return true
			}
		} else if recv != nil && base == recv {
			// (b) recv.F.Done() — Wait in the launcher or in a
			// Close/Stop-family method of the owning type.
			if owner == nil && callsOnFieldPath(info, launcher.Decl.Body, base, path, "Wait") {
				return true
			}
			if typeHasBarrier(g, namedTypeKey(recv.Type()), func(m *FuncNode, mrecv types.Object) bool {
				return callsOnFieldPath(m.Pkg.Info, m.Decl.Body, mrecv, path, "Wait")
			}) {
				return true
			}
		}
	}

	// (c) the body consumes a channel field that a Close/Stop-family
	// method of the owning type closes.
	if recv != nil {
		tkey := namedTypeKey(recv.Type())
		for _, path := range consumedChanFields(bodyInfo, body, recv) {
			path := path
			if typeHasBarrier(g, tkey, func(m *FuncNode, mrecv types.Object) bool {
				return closesFieldPath(m.Pkg.Info, m.Decl.Body, mrecv, path)
			}) {
				return true
			}
		}
	}
	return false
}

// bodyRecvObj picks the receiver object whose fields count as "owned":
// the launched method's receiver when there is one, else the
// enclosing method's.
func bodyRecvObj(owner, launcher *FuncNode) types.Object {
	if owner != nil {
		return receiverObj(owner)
	}
	return receiverObj(launcher)
}

// waitGroupDoneChain finds a `<chain>.Done()` call resolving into
// package sync inside body and returns the chain's (base, path).
func waitGroupDoneChain(info *types.Info, body *ast.BlockStmt) (types.Object, string, bool) {
	var base types.Object
	var path string
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Done" || info == nil {
			return true
		}
		s, ok := info.Selections[sel]
		if !ok {
			return true
		}
		f, ok := s.Obj().(*types.Func)
		if !ok || f.Pkg() == nil || f.Pkg().Path() != "sync" {
			return true
		}
		if b, p, ok := fieldChainOf(info, sel.X); ok {
			base, path, found = b, p, true
		}
		return true
	})
	return base, path, found
}

// localObj reports whether obj is declared inside fd (params and body
// both count — closures capture either way).
func localObj(fd *ast.FuncDecl, obj types.Object) bool {
	return obj.Pos() >= fd.Pos() && obj.Pos() < fd.End()
}

// consumedChanFields lists receiver field paths (index-unwrapped)
// that the body receives from or ranges over.
func consumedChanFields(info *types.Info, body *ast.BlockStmt, recv types.Object) []string {
	seen := map[string]bool{}
	var out []string
	add := func(e ast.Expr) {
		if base, path, ok := fieldChainOf(info, e); ok && base == recv && path != "" && !seen[path] {
			seen[path] = true
			out = append(out, path)
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			if isChanExpr(info, n.X) {
				add(n.X)
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				add(n.X)
			}
		}
		return true
	})
	return out
}

// closesFieldPath looks for close(<recv-rooted chain with path>),
// directly or through a range alias (`for _, ch := range s.kick {
// close(ch) }`).
func closesFieldPath(info *types.Info, body *ast.BlockStmt, recv types.Object, path string) bool {
	if info == nil || recv == nil {
		return false
	}
	rangeAlias := map[types.Object]string{}
	ast.Inspect(body, func(n ast.Node) bool {
		if rs, ok := n.(*ast.RangeStmt); ok {
			if base, p, ok := fieldChainOf(info, rs.X); ok && base == recv {
				if v, ok := rs.Value.(*ast.Ident); ok && v.Name != "_" {
					if obj := info.Defs[v]; obj != nil {
						rangeAlias[obj] = p
					}
				}
			}
		}
		return true
	})
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok || id.Name != "close" || len(call.Args) != 1 {
			return true
		}
		if base, p, ok := fieldChainOf(info, ast.Unparen(call.Args[0])); ok {
			if base == recv && p == path {
				found = true
			}
			if alias, ok := rangeAlias[base]; ok && alias == path {
				found = true
			}
		}
		return true
	})
	return found
}

// callsOnFieldPath looks for `<recv>.<path>.<method>()` in body
// (path "" means a call directly on the base object).
func callsOnFieldPath(info *types.Info, body *ast.BlockStmt, recv types.Object, path, method string) bool {
	if info == nil || recv == nil {
		return false
	}
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != method {
			return true
		}
		if base, p, ok := fieldChainOf(info, sel.X); ok && base == recv && p == path {
			found = true
		}
		return true
	})
	return found
}

// typeHasBarrier runs probe over every Close/Stop-family method of
// the type identified by tkey.
func typeHasBarrier(g *CallGraph, tkey string, probe func(m *FuncNode, recv types.Object) bool) bool {
	if tkey == "" {
		return false
	}
	for _, m := range g.Funcs {
		if m.Decl.Recv == nil || !closeFamily[m.Decl.Name.Name] {
			continue
		}
		recv := receiverObj(m)
		if recv == nil || namedTypeKey(recv.Type()) != tkey {
			continue
		}
		if probe(m, recv) {
			return true
		}
	}
	return false
}

// fieldChainOf is chainOf with index expressions unwrapped (dropping
// the index): s.kick[i] → (s, "kick").
func fieldChainOf(info *types.Info, e ast.Expr) (types.Object, string, bool) {
	switch e := ast.Unparen(e).(type) {
	case *ast.IndexExpr:
		return fieldChainOf(info, e.X)
	case *ast.StarExpr:
		return fieldChainOf(info, e.X)
	case *ast.SelectorExpr:
		base, path, ok := fieldChainOf(info, e.X)
		if !ok {
			return nil, "", false
		}
		if path == "" {
			return base, e.Sel.Name, true
		}
		return base, path + "." + e.Sel.Name, true
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
	}
	return nil, "", false
}
