package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockholdCheck flags blocking operations reachable while a mutex is
// held: network dials and listens, reads/writes on streams (net.Conn,
// io.Reader, io.Writer, an interface embedding one of them, or a
// concrete net.Conn-shaped type) directly or through the io package's
// stream helpers (ReadFull, ReadAtLeast, Copy, CopyN, CopyBuffer),
// channel operations with no escape, WaitGroup.Wait, and clock sleeps.
// This is the leader attach-round contention class — a hot lock held
// across a dial turns every reader into a convoy.
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
		Name: "lockhold",
		Doc:  "no blocking operation (dial, stream I/O, bare channel op, sleep, Wait) may run while a mutex is held",
		Run:  runLockhold,
	}
}

// lockholdFunc is one function's direct blocking operations and static
// calls into module functions, each with the lock set held there,
// gathered by one walk of its CFG.
type lockholdFunc struct {
	node      *FuncNode
	fl        *funcLocks
	deadlines []token.Pos
	ops       []blockingOp
	calls     []moduleCall
}

type blockingOp struct {
	pos    token.Pos
	reason string
	isIO   bool // the class a deadline guard exempts
	held   lockSet
}

type moduleCall struct {
	call   *ast.CallExpr
	callee string
	held   lockSet
}

func runLockhold(pass *Pass) {
	la := pass.Graph.LockSets()

	// Which module functions block, intrinsically: the first blocking
	// op that no deadline guard exempts names the reason. The walks
	// below go in name order, so the reason a caller inherits (the first
	// blocking callee the fixpoint reaches) is the same every run.
	funcs := make([]*lockholdFunc, 0, len(pass.Graph.Funcs))
	blocks := make(map[string]string)
	for name, node := range pass.Graph.Funcs {
		lf := collectLockhold(pass.Graph, node, la.funcs[name])
		funcs = append(funcs, lf)
		for _, op := range lf.ops {
			if !op.isIO || !deadlineBefore(lf.deadlines, op.pos) {
				blocks[name] = op.reason
				break
			}
		}
	}
	sort.Slice(funcs, func(i, j int) bool { return funcs[i].node.Name < funcs[j].node.Name })

	// Fixpoint: calling a blocking function makes the caller blocking,
	// unless the call site sits behind a deadline guard.
	for changed := true; changed; {
		changed = false
		for _, lf := range funcs {
			if _, ok := blocks[lf.node.Name]; ok {
				continue
			}
			for _, c := range lf.calls {
				if reason, ok := blocks[c.callee]; ok && !deadlineBefore(lf.deadlines, c.call.Pos()) {
					blocks[lf.node.Name] = "calls " + shortFuncName(c.callee) + " which " + reason
					changed = true
					break
				}
			}
		}
	}

	// Flag blocking sites and blocking calls under a held lock.
	for _, lf := range funcs {
		for _, op := range lf.ops {
			if heldLocally(lf.fl, op.held) && (!op.isIO || !deadlineBefore(lf.deadlines, op.pos)) {
				pass.Reportf(lf.node.Pkg, op.pos, "%s while holding %s", op.reason, op.held.describe())
			}
		}
		for _, c := range lf.calls {
			reason, ok := blocks[c.callee]
			if ok && heldLocally(lf.fl, c.held) && !deadlineBefore(lf.deadlines, c.call.Pos()) {
				pass.Reportf(lf.node.Pkg, c.call.Pos(), "call to %s while holding %s: it %s",
					shortFuncName(c.callee), c.held.describe(), reason)
			}
		}
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

// collectLockhold walks one function's CFG once, recording direct
// blocking operations and static calls into module functions. go/defer
// statements and closure bodies are skipped — they do not block the
// locked path.
func collectLockhold(g *CallGraph, node *FuncNode, fl *funcLocks) *lockholdFunc {
	lf := &lockholdFunc{node: node, fl: fl, deadlines: deadlinePositions(node.Decl)}
	info := node.Pkg.Info
	op := func(pos token.Pos, reason string, isIO bool, held lockSet) {
		lf.ops = append(lf.ops, blockingOp{pos: pos, reason: reason, isIO: isIO, held: held})
	}
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
			op(s.Pos(), "bare channel send blocks", false, held)
			return
		case *ast.SelectStmt:
			if blockingSelect(s) {
				op(s.Pos(), "single-clause select blocks like a bare channel op", false, held)
			}
			return
		case *ast.RangeStmt:
			if isChanExpr(info, s.X) {
				op(s.Pos(), "range over channel blocks between messages", false, held)
			}
			// fall through to shallow inspection for the range operands
		}
		inspectShallow(stmt, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.UnaryExpr:
				if n.Op == token.ARROW {
					op(n.Pos(), "bare channel receive blocks", false, held)
				}
			case *ast.CallExpr:
				// callee is "" for a dynamic call: an interface method
				// (stream I/O on a net.Conn or io.Writer, say) or a func
				// value.
				callee := resolveCallee(info, n)
				if reason, isIO, ok := blockingCall(info, n, callee); ok {
					op(n.Pos(), reason, isIO, held)
				} else if g.Funcs[callee] != nil {
					lf.calls = append(lf.calls, moduleCall{call: n, callee: callee, held: held})
				} else if callee == "" {
					// A func-typed value returning a net.Conn is a dial
					// seam (the cfg.Dial(peer) pattern).
					if reason, ok := dialSeamCall(info, n); ok {
						op(n.Pos(), reason, false, held)
					}
				}
			}
			return true
		})
	})
	return lf
}

// blockingCall classifies a call; callee is "" when resolveCallee found
// no static target. isIO marks the class that a deadline guard exempts.
func blockingCall(info *types.Info, call *ast.CallExpr, callee string) (string, bool, bool) {
	switch callee {
	case "time.Sleep":
		return "time.Sleep blocks", false, true
	case "io.ReadFull", "io.ReadAtLeast", "io.Copy", "io.CopyN", "io.CopyBuffer":
		// The standard library is not followed, so its stream helpers
		// are judged by their arguments, like a Read or Write.
		for _, arg := range call.Args {
			if name, ok := streamName(info.TypeOf(arg)); ok {
				return callee + " on " + name + " blocks without a deadline", true, true
			}
		}
		return "", false, false
	}
	if strings.HasPrefix(callee, "net.Dial") || strings.HasPrefix(callee, "net.Listen") {
		return shortFuncName(callee) + " blocks on the network", false, true
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false, false
	}
	if s, ok := info.Selections[sel]; ok && callee == "" {
		if f, ok := s.Obj().(*types.Func); ok { // an interface method
			callee = f.FullName()
		}
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
			if name, ok := streamName(s.Recv()); ok {
				return sel.Sel.Name + " on " + name + " blocks without a deadline", true, true
			}
		}
	}
	return "", false, false
}

// streamName names t for a message if it is a stream: an interface
// isStream accepts, or a concrete net.Conn-shaped type.
func streamName(t types.Type) (string, bool) {
	switch {
	case t == nil:
		return "", false
	case types.IsInterface(t) && isStream(t):
		return shortTypeName(namedTypeKey(t)), true
	case implementsNetConn(t):
		return "net.Conn", true
	}
	return "", false
}

// dialSeamCall reports calls through func-typed values whose results
// include a net.Conn.
func dialSeamCall(info *types.Info, call *ast.CallExpr) (string, bool) {
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

// isStream reports whether the interface type t is net.Conn, io.Reader
// or io.Writer, or embeds one of them (io.ReadWriter, say).
func isStream(t types.Type) bool {
	switch namedTypeKey(t) {
	case "net.Conn", "io.Reader", "io.Writer":
		return true
	}
	it, ok := t.Underlying().(*types.Interface)
	if !ok {
		return false
	}
	for i := 0; i < it.NumEmbeddeds(); i++ {
		if isStream(it.EmbeddedType(i)) {
			return true
		}
	}
	return false
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
	_, ok := info.TypeOf(e).Underlying().(*types.Chan)
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
