package analysis

import "go/ast"

// A lightweight per-function control-flow graph: one node per
// statement, with successor edges approximating execution order. It
// exists to give the dataflow checks (lockorder, lockguard, lockhold) a
// real join semantics — a lock acquired in one branch of an if must not
// count as held after the merge unless both branches acquired it, and
// a loop body must reach a fixpoint, not a single linear scan.
//
// Approximations (all toward fewer false positives in may-analyses):
//
//   - switch/select always include the fall-past edge, even with a
//     default clause, so facts only established inside every clause
//     still merge conservatively;
//   - goto is treated like return (no successor) rather than chasing
//     labels;
//   - panics and calls that never return are ordinary statements;
//   - function-literal bodies are NOT part of the enclosing CFG —
//     closures run at an unknown time under unknown locks and are
//     analyzed (or skipped) separately by each check.
type funcCFG struct {
	nodes []cfgNode
	entry int // index of the first node, cfgExit for an empty body
}

type cfgNode struct {
	stmt  ast.Stmt
	succs []int
}

// cfgExit is the pseudo-index meaning "function exit"; edges to it
// are simply not recorded.
const cfgExit = -1

type loopCtx struct {
	label      string
	breakTo    int
	continueTo int
}

type cfgBuilder struct {
	nodes []cfgNode
	loops []loopCtx
}

// buildCFG constructs the statement-level CFG for a function body.
func buildCFG(body *ast.BlockStmt) *funcCFG {
	b := &cfgBuilder{}
	entry := b.buildBlock(body.List, cfgExit)
	return &funcCFG{nodes: b.nodes, entry: entry}
}

func (b *cfgBuilder) newNode(s ast.Stmt) int {
	b.nodes = append(b.nodes, cfgNode{stmt: s})
	return len(b.nodes) - 1
}

// addSucc records from→to; edges to the exit are implicit and not
// stored.
func (b *cfgBuilder) addSucc(from, to int) {
	if from == cfgExit || to == cfgExit {
		return
	}
	b.nodes[from].succs = append(b.nodes[from].succs, to)
}

// buildBlock threads a statement list backwards so every statement
// knows its continuation, and returns the entry index of the list
// (follow itself when the list is empty).
func (b *cfgBuilder) buildBlock(list []ast.Stmt, follow int) int {
	cur := follow
	for i := len(list) - 1; i >= 0; i-- {
		cur = b.buildStmt(list[i], cur, "")
	}
	return cur
}

// buildStmt adds nodes for one statement and returns its entry index.
// label carries an enclosing label through to loops and switches so
// labeled break/continue resolve.
func (b *cfgBuilder) buildStmt(s ast.Stmt, follow int, label string) int {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return b.buildBlock(s.List, follow)

	case *ast.LabeledStmt:
		return b.buildStmt(s.Stmt, follow, s.Label.Name)

	case *ast.IfStmt:
		node := b.newNode(s) // cond evaluation
		b.addSucc(node, b.buildBlock(s.Body.List, follow))
		if s.Else != nil {
			b.addSucc(node, b.buildStmt(s.Else, follow, ""))
		} else {
			b.addSucc(node, follow)
		}
		return b.chainInit(s.Init, node)

	case *ast.ForStmt:
		node := b.newNode(s) // cond (+post) evaluation
		b.loops = append(b.loops, loopCtx{label: label, breakTo: follow, continueTo: node})
		b.addSucc(node, b.buildBlock(s.Body.List, node))
		b.loops = b.loops[:len(b.loops)-1]
		b.addSucc(node, follow)
		return b.chainInit(s.Init, node)

	case *ast.RangeStmt:
		node := b.newNode(s)
		b.loops = append(b.loops, loopCtx{label: label, breakTo: follow, continueTo: node})
		b.addSucc(node, b.buildBlock(s.Body.List, node))
		b.loops = b.loops[:len(b.loops)-1]
		b.addSucc(node, follow)
		return node

	case *ast.SwitchStmt:
		return b.buildSwitch(s, s.Init, caseBodies(s.Body), follow, label)

	case *ast.TypeSwitchStmt:
		return b.buildSwitch(s, s.Init, caseBodies(s.Body), follow, label)

	case *ast.SelectStmt:
		node := b.newNode(s)
		b.loops = append(b.loops, loopCtx{label: label, breakTo: follow, continueTo: cfgExit})
		for _, c := range s.Body.List {
			cc, ok := c.(*ast.CommClause)
			if !ok {
				continue
			}
			bodyE := b.buildBlock(cc.Body, follow)
			if cc.Comm != nil {
				b.addSucc(node, b.buildStmt(cc.Comm, bodyE, ""))
			} else {
				b.addSucc(node, bodyE)
			}
		}
		b.loops = b.loops[:len(b.loops)-1]
		// Fall-past edge (e.g. every clause returns): keeps merges sound.
		b.addSucc(node, follow)
		return node

	case *ast.ReturnStmt:
		return b.newNode(s) // no successors

	case *ast.BranchStmt:
		node := b.newNode(s)
		switch s.Tok.String() {
		case "break":
			if t := b.loopFor(s.Label); t != nil {
				b.addSucc(node, t.breakTo)
			}
		case "continue":
			if t := b.loopFor(s.Label); t != nil {
				b.addSucc(node, t.continueTo)
			}
		case "fallthrough":
			b.addSucc(node, follow)
		case "goto":
			// treated as exit
		}
		return node

	default:
		// Plain statement: expr, assign, defer, go, send, incdec, decl.
		node := b.newNode(s)
		b.addSucc(node, follow)
		return node
	}
}

// chainInit threads a switch/if/for init statement before the node.
func (b *cfgBuilder) chainInit(init ast.Stmt, node int) int {
	if init == nil {
		return node
	}
	i := b.newNode(init)
	b.addSucc(i, node)
	return i
}

func (b *cfgBuilder) buildSwitch(s ast.Stmt, init ast.Stmt, bodies [][]ast.Stmt, follow int, label string) int {
	node := b.newNode(s)
	b.loops = append(b.loops, loopCtx{label: label, breakTo: follow, continueTo: cfgExit})
	for _, body := range bodies {
		b.addSucc(node, b.buildBlock(body, follow))
	}
	b.loops = b.loops[:len(b.loops)-1]
	// Fall-past edge: no clause matched (or empty switch).
	b.addSucc(node, follow)
	return b.chainInit(init, node)
}

func caseBodies(body *ast.BlockStmt) [][]ast.Stmt {
	var out [][]ast.Stmt
	for _, c := range body.List {
		if cc, ok := c.(*ast.CaseClause); ok {
			out = append(out, cc.Body)
		}
	}
	return out
}

// loopFor resolves a break/continue target: the innermost loop, or
// the loop carrying the label.
func (b *cfgBuilder) loopFor(label *ast.Ident) *loopCtx {
	if len(b.loops) == 0 {
		return nil
	}
	if label == nil {
		return &b.loops[len(b.loops)-1]
	}
	for i := len(b.loops) - 1; i >= 0; i-- {
		if b.loops[i].label == label.Name {
			return &b.loops[i]
		}
	}
	return nil
}

// shallowParts returns the sub-expressions evaluated by the node
// itself, excluding nested statement bodies (which have their own
// nodes). Checks walk these with inspectShallow so every expression
// is visited exactly once, under the right lock-set.
func shallowParts(s ast.Stmt) []ast.Node {
	switch s := s.(type) {
	case *ast.IfStmt:
		return []ast.Node{s.Cond}
	case *ast.ForStmt:
		var out []ast.Node
		if s.Cond != nil {
			out = append(out, s.Cond)
		}
		if s.Post != nil {
			out = append(out, s.Post)
		}
		return out
	case *ast.RangeStmt:
		out := []ast.Node{s.X}
		if s.Key != nil {
			out = append(out, s.Key)
		}
		if s.Value != nil {
			out = append(out, s.Value)
		}
		return out
	case *ast.SwitchStmt:
		if s.Tag != nil {
			return []ast.Node{s.Tag}
		}
		return nil
	case *ast.TypeSwitchStmt:
		return []ast.Node{s.Assign}
	case *ast.SelectStmt:
		return nil
	case *ast.LabeledStmt:
		return shallowParts(s.Stmt)
	case *ast.BlockStmt:
		return nil
	default:
		return []ast.Node{s}
	}
}

// inspectShallow walks the node's own expressions, pruning function
// literals (closures are separate analysis units).
func inspectShallow(s ast.Stmt, fn func(ast.Node) bool) {
	for _, part := range shallowParts(s) {
		ast.Inspect(part, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok {
				return false
			}
			return fn(n)
		})
	}
}
