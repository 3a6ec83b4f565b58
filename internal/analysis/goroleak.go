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
		Name: "goroleak",
		Doc:  "goroutines in serve/replica/native must be joined by a WaitGroup or a Close-signaled channel",
		Run:  runGoroleak,
	}
}

var goroleakPkgs = []string{"internal/serve", "internal/replica", "internal/native"}

// closeFamily are the method names where a quiescence barrier is
// expected to live.
var closeFamily = map[string]bool{"Close": true, "Stop": true, "Shutdown": true, "Wait": true, "Join": true}

func runGoroleak(pass *Pass) {
	j := &joinScan{g: pass.Graph, facts: make(map[*ast.BlockStmt]*bodyFacts)}
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
			if !j.joined(node, g) {
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

// joinScan answers join-evidence queries from per-body facts, each
// body walked once however many launches consult it.
type joinScan struct {
	g     *CallGraph
	facts map[*ast.BlockStmt]*bodyFacts
}

// bodyFacts is what the join evidence reads from one body. Chains are
// (base object, field path) with index expressions unwrapped.
type bodyFacts struct {
	done     *lockKey                 // the first <chain>.Done() resolving into sync
	consumed []lockKey                // channels received from or ranged over
	waits    map[lockKey]bool         // <chain>.Wait() calls
	closes   []lockKey                // close(<chain>) arguments
	aliases  map[types.Object]lockKey // range value variable → the chain it ranges
}

func (j *joinScan) of(info *types.Info, body *ast.BlockStmt) *bodyFacts {
	if f := j.facts[body]; f != nil {
		return f
	}
	f := &bodyFacts{waits: map[lockKey]bool{}, aliases: map[types.Object]lockKey{}}
	j.facts[body] = f
	chain := func(e ast.Expr) (lockKey, bool) {
		base, path, ok := chainOf(info, e, true)
		return lockKey{base: base, path: path}, ok
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			c, ok := chain(n.X)
			if !ok {
				break
			}
			if isChanExpr(info, n.X) {
				f.consumed = append(f.consumed, c)
			}
			if v, ok := n.Value.(*ast.Ident); ok && v.Name != "_" && info.Defs[v] != nil {
				f.aliases[info.Defs[v]] = c
			}
		case *ast.UnaryExpr:
			if n.Op != token.ARROW {
				break
			}
			if c, ok := chain(n.X); ok {
				f.consumed = append(f.consumed, c)
			}
		case *ast.CallExpr:
			switch fun := ast.Unparen(n.Fun).(type) {
			case *ast.Ident:
				if fun.Name != "close" || len(n.Args) != 1 {
					break
				}
				if c, ok := chain(n.Args[0]); ok {
					f.closes = append(f.closes, c)
				}
			case *ast.SelectorExpr:
				c, ok := chain(fun.X)
				switch {
				case !ok:
				case fun.Sel.Name == "Wait":
					f.waits[c] = true
				case fun.Sel.Name == "Done" && f.done == nil && isSyncMethod(info, fun):
					f.done = &c
				}
			}
		}
		return true
	})
	return f
}

// closesChain reports whether the body closes (recv, path), directly
// or through a range alias (`for _, ch := range s.kick { close(ch) }`).
func (f *bodyFacts) closesChain(recv types.Object, path string) bool {
	want := lockKey{base: recv, path: path}
	for _, c := range f.closes {
		if c == want || f.aliases[c.base] == want {
			return true
		}
	}
	return false
}

// joined looks for any accepted join evidence for one go statement.
func (j *joinScan) joined(launcher *FuncNode, stmt *ast.GoStmt) bool {
	info := launcher.Pkg.Info
	// The body to scan: a literal's body, or the launched method's body.
	var body *ast.BlockStmt
	var owner *FuncNode // launched module method, when resolvable
	if lit, ok := ast.Unparen(stmt.Call.Fun).(*ast.FuncLit); ok {
		body = lit.Body
	} else if callee := resolveCallee(info, stmt.Call); callee != "" && j.g.Funcs[callee] != nil {
		owner = j.g.Funcs[callee]
		body = owner.Decl.Body
	} else {
		return false // dynamic or out-of-module target: unprovable
	}
	bodyInfo := info
	if owner != nil {
		bodyInfo = owner.Pkg.Info
	}
	recv := bodyRecvObj(owner, launcher)
	facts := j.of(bodyInfo, body)

	// WaitGroup evidence: a sync Done call in the body.
	if d := facts.done; d != nil {
		if d.path == "" {
			// (a) plain wg.Done() on a variable captured from the
			// launching function, joined by wg.Wait() there.
			if owner == nil && localObj(launcher.Decl, d.base) && j.of(info, launcher.Decl.Body).waits[*d] {
				return true
			}
		} else if recv != nil && d.base == recv {
			// (b) recv.F.Done() — Wait in the launcher or in a
			// Close/Stop-family method of the owning type.
			if owner == nil && j.of(info, launcher.Decl.Body).waits[*d] {
				return true
			}
			if j.typeHasBarrier(namedTypeKey(recv.Type()), func(m *bodyFacts, mrecv types.Object) bool {
				return m.waits[lockKey{base: mrecv, path: d.path}]
			}) {
				return true
			}
		}
	}

	// (c) the body consumes a channel field that a Close/Stop-family
	// method of the owning type closes.
	if recv != nil {
		for _, c := range facts.consumed {
			if c.base != recv || c.path == "" {
				continue
			}
			if j.typeHasBarrier(namedTypeKey(recv.Type()), func(m *bodyFacts, mrecv types.Object) bool {
				return m.closesChain(mrecv, c.path)
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

// localObj reports whether obj is declared inside fd (params and body
// both count — closures capture either way).
func localObj(fd *ast.FuncDecl, obj types.Object) bool {
	return obj.Pos() >= fd.Pos() && obj.Pos() < fd.End()
}

// typeHasBarrier runs probe over the facts of every Close/Stop-family
// method of the type identified by tkey.
func (j *joinScan) typeHasBarrier(tkey string, probe func(m *bodyFacts, recv types.Object) bool) bool {
	if tkey == "" {
		return false
	}
	for _, m := range j.g.Funcs {
		if m.Decl.Recv == nil || !closeFamily[m.Decl.Name.Name] {
			continue
		}
		recv := receiverObj(m)
		if recv == nil || namedTypeKey(recv.Type()) != tkey {
			continue
		}
		if probe(j.of(m.Pkg.Info, m.Decl.Body), recv) {
			return true
		}
	}
	return false
}
