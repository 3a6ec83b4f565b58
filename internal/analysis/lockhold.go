package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// LockholdCheck flags blocking operations reachable while a mutex is
// held: network dials and listens, reads/writes on interface-typed
// streams, channel operations with no escape, WaitGroup.Wait, and
// clock sleeps. This is the leader attach-round contention class — a
// hot lock held across a dial turns every reader into a convoy.
//
// Escapes that make an operation bounded (and therefore exempt):
//
//   - (*sync.Cond).Wait — it releases the associated mutex;
//   - a Set{,Read,Write}Deadline call earlier in the same function
//     exempts stream I/O and calls into blocking helpers after it
//     (the writeFrame/readFrame idiom: deadline first, then write);
//   - select statements with ≥ 2 clauses or a default — there is an
//     escape path; a single-clause select is just a receive;
//   - operations inside go/defer statements — they do not block the
//     path currently holding the lock.
//
// Blocking-ness propagates up the static call graph: a function that
// (transitively) performs an unexempted blocking op is itself
// blocking, and calling it with a lock held is flagged at the call
// site.
func LockholdCheck() *Check {
	return &Check{
		Name:      "lockhold",
		Doc:       "no blocking operation (dial, stream I/O, bare channel op, sleep, Wait) may run while a mutex is held",
		RunModule: runLockhold,
	}
}

// blockInfo describes why a function blocks, for call-site messages.
type blockInfo struct {
	reason string
}

func runLockhold(pass *ModulePass) {
	if pass.Graph == nil {
		return
	}
	la := pass.Graph.LockSets()

	// Pass 1: which module functions block, intrinsically.
	blocks := make(map[string]*blockInfo)
	for name, node := range pass.Graph.Funcs {
		fl := la.funcs[name]
		if fl == nil {
			continue
		}
		deadlines := deadlinePositions(node.Decl)
		visitLockholdSites(pass.Graph, node, fl, func(pos token.Pos, reason string, isIO bool, _ lockSet) {
			if blocks[name] != nil {
				return
			}
			if isIO && deadlineBefore(deadlines, pos) {
				return
			}
			blocks[name] = &blockInfo{reason: reason}
		}, nil)
	}

	// Fixpoint: calling a blocking function makes the caller blocking,
	// unless the call site sits behind a deadline guard.
	for changed := true; changed; {
		changed = false
		for name, node := range pass.Graph.Funcs {
			if blocks[name] != nil {
				continue
			}
			fl := la.funcs[name]
			if fl == nil {
				continue
			}
			deadlines := deadlinePositions(node.Decl)
			visitLockholdSites(pass.Graph, node, fl, nil, func(call *ast.CallExpr, callee string, _ lockSet) {
				if blocks[name] != nil {
					return
				}
				bi := blocks[callee]
				if bi == nil || deadlineBefore(deadlines, call.Pos()) {
					return
				}
				blocks[name] = &blockInfo{reason: "calls " + shortFuncName(callee) + " which " + bi.reason}
				changed = true
			})
		}
	}

	// Pass 2: flag blocking sites and blocking calls under a held lock.
	for name, node := range pass.Graph.Funcs {
		fl := la.funcs[name]
		if fl == nil {
			continue
		}
		node := node
		deadlines := deadlinePositions(node.Decl)
		visitLockholdSites(pass.Graph, node, fl,
			func(pos token.Pos, reason string, isIO bool, held lockSet) {
				if !heldLocally(fl, held) {
					return
				}
				if isIO && deadlineBefore(deadlines, pos) {
					return
				}
				pass.Reportf(node.Pkg, pos, "%s while holding %s", reason, held.describe())
			},
			func(call *ast.CallExpr, callee string, held lockSet) {
				if !heldLocally(fl, held) {
					return
				}
				bi := blocks[callee]
				if bi == nil || deadlineBefore(deadlines, call.Pos()) {
					return
				}
				pass.Reportf(node.Pkg, call.Pos(), "call to %s while holding %s: it %s",
					shortFuncName(callee), held.describe(), bi.reason)
			})
	}
}

// heldLocally reports whether the held set contains at least one lock
// this function acquired itself, rather than inheriting through the
// call-site seed. Purely-inherited sites are not reported here: every
// caller that seeded the lock gets its own call-site diagnostic (the
// callee is blocking), and reporting inside the callee too would say
// the same thing twice.
func heldLocally(fl *funcLocks, held lockSet) bool {
	for k := range held {
		if !fl.seed[k] {
			return true
		}
	}
	return false
}

// visitLockholdSites walks one function's CFG and reports (a) direct
// blocking operations to op and (b) static calls into module
// functions to callSite. Either callback may be nil. go/defer
// statements and closure bodies are skipped — they do not block the
// locked path.
func visitLockholdSites(g *CallGraph, node *FuncNode, fl *funcLocks,
	op func(pos token.Pos, reason string, isIO bool, held lockSet),
	callSite func(call *ast.CallExpr, callee string, held lockSet)) {

	info := node.Pkg.Info
	// Select comm statements have CFG nodes of their own; their channel
	// ops are judged at the SelectStmt (escape or not), never as bare.
	commStmts := make(map[ast.Stmt]bool)
	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectStmt); ok {
			for _, c := range sel.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm != nil {
					commStmts[cc.Comm] = true
				}
			}
		}
		return true
	})
	fl.visit(func(stmt ast.Stmt, held lockSet) {
		if commStmts[stmt] {
			return
		}
		switch s := stmt.(type) {
		case *ast.GoStmt, *ast.DeferStmt:
			return
		case *ast.SendStmt:
			if op != nil {
				op(s.Pos(), "bare channel send blocks", false, held)
			}
			return
		case *ast.SelectStmt:
			if op != nil && blockingSelect(s) {
				op(s.Pos(), "single-clause select blocks like a bare channel op", false, held)
			}
			return
		case *ast.RangeStmt:
			if op != nil && isChanExpr(info, s.X) {
				op(s.Pos(), "range over channel blocks between messages", false, held)
			}
			// fall through to shallow inspection for the range operands
		}
		inspectShallow(stmt, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.UnaryExpr:
				if n.Op == token.ARROW && op != nil {
					op(n.Pos(), "bare channel receive blocks", false, held)
				}
			case *ast.CallExpr:
				callee := resolveCallee(info, n)
				if callee != "" {
					if reason, isIO, ok := blockingCall(info, n, callee); ok && op != nil {
						op(n.Pos(), reason, isIO, held)
					} else if callSite != nil && g.Funcs[callee] != nil {
						callSite(n, callee, held)
					}
					return true
				}
				// Dynamic call: a func-typed value returning a net.Conn
				// is a dial seam (the cfg.Dial(peer) pattern).
				if reason, ok := dialSeamCall(info, n); ok && op != nil {
					op(n.Pos(), reason, false, held)
				}
			}
			return true
		})
	})
}

// blockingCall classifies a statically-resolved call. isIO marks the
// class that a deadline guard exempts.
func blockingCall(info *types.Info, call *ast.CallExpr, callee string) (string, bool, bool) {
	switch callee {
	case "time.Sleep":
		return "time.Sleep blocks", false, true
	}
	if strings.HasPrefix(callee, "net.Dial") || strings.HasPrefix(callee, "net.Listen") {
		return shortFuncName(callee) + " blocks on the network", false, true
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false, false
	}
	switch sel.Sel.Name {
	case "Sleep":
		// Clock-seam sleeps: any method named Sleep (clock.Clock et al).
		if _, ok := info.Selections[sel]; ok {
			return shortFuncName(callee) + " sleeps", false, true
		}
	case "Wait":
		if s, ok := info.Selections[sel]; ok {
			recv := trimPointer(s.Recv()).String()
			if recv == "sync.Cond" {
				return "", false, false // releases the mutex while waiting
			}
			if recv == "sync.WaitGroup" {
				return "WaitGroup.Wait blocks until all workers finish", false, true
			}
		}
	case "Read", "Write":
		if s, ok := info.Selections[sel]; ok {
			if types.IsInterface(s.Recv()) {
				return sel.Sel.Name + " on " + trimPointer(s.Recv()).String() + " blocks without a deadline", true, true
			}
			if implementsNetConn(s.Recv()) {
				return sel.Sel.Name + " on net.Conn blocks without a deadline", true, true
			}
		}
	}
	return "", false, false
}

// dialSeamCall reports calls through func-typed values whose results
// include a net.Conn.
func dialSeamCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	if info == nil {
		return "", false
	}
	tv, ok := info.Types[call.Fun]
	if !ok || tv.IsType() {
		return "", false
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return "", false
	}
	for i := 0; i < sig.Results().Len(); i++ {
		if namedTypeKey(sig.Results().At(i).Type()) == "net.Conn" {
			return "dial through func value blocks on the network", true
		}
	}
	return "", false
}

// implementsNetConn detects concrete stream types by method shape:
// the type has all of SetReadDeadline/SetWriteDeadline/Close. (The
// analysis universe cannot depend on importing net here; the method
// triple is the stable fingerprint.)
func implementsNetConn(t types.Type) bool {
	need := map[string]bool{"SetReadDeadline": false, "SetWriteDeadline": false, "Close": false}
	ms := types.NewMethodSet(t)
	for i := 0; i < ms.Len(); i++ {
		name := ms.At(i).Obj().Name()
		if _, ok := need[name]; ok {
			need[name] = true
		}
	}
	for _, got := range need {
		if !got {
			return false
		}
	}
	return true
}

// blockingSelect: a select with a single comm clause and no default
// is just a decorated channel op.
func blockingSelect(s *ast.SelectStmt) bool {
	clauses := 0
	for _, c := range s.Body.List {
		cc, ok := c.(*ast.CommClause)
		if !ok {
			continue
		}
		if cc.Comm == nil {
			return false // default clause: never blocks
		}
		clauses++
	}
	return clauses == 1
}

func isChanExpr(info *types.Info, e ast.Expr) bool {
	if info == nil {
		return false
	}
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	_, ok = tv.Type.Underlying().(*types.Chan)
	return ok
}

// deadlinePositions collects the positions of Set*Deadline calls in
// the function, in source order.
func deadlinePositions(fd *ast.FuncDecl) []token.Pos {
	var out []token.Pos
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			switch sel.Sel.Name {
			case "SetDeadline", "SetReadDeadline", "SetWriteDeadline":
				out = append(out, call.Pos())
			}
		}
		return true
	})
	return out
}

func deadlineBefore(deadlines []token.Pos, pos token.Pos) bool {
	for _, d := range deadlines {
		if d < pos {
			return true
		}
	}
	return false
}
