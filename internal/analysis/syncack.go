package analysis

import (
	"go/ast"
	"go/token"
)

// SyncackCheck enforces the PR-3/4 durability ordering in the
// durability packages (internal/wal, internal/replica): a function
// that appends records to a log must not write an acknowledgement
// (Ack/Welcome frame, or an Ack method) on a path where no fsync
// barrier dominates the append. The approximation is same-function
// syntactic ordering: an ack site is flagged when the nearest
// preceding append in source order has no Sync/fsync-carrying call
// between it and the ack.
//
// Calls that are themselves durable barriers (Sync, settle, and
// the pipeline's Ingest/IngestReplicated, which run
// append+fsync+apply internally) clear the pending-append state. The
// known-safe dup-re-ack path (re-acking an already-durable sequence)
// carries a //tdgraph:allow syncack directive where needed.
func SyncackCheck() *Check {
	return &Check{
		Name: "syncack",
		Doc:  "forbid acks/Welcome frames after an append with no intervening fsync barrier in wal/replica (fsync-before-ack contract)",
		Run:  runSyncack,
	}
}

// appendCalls put bytes in the log without making them durable.
var appendCalls = map[string]bool{"Append": true, "AppendGroup": true}

// barrierCalls make previously appended bytes durable (or perform the
// whole append+fsync internally).
var barrierCalls = map[string]bool{
	"Sync": true, "settle": true,
	"Ingest": true, "IngestReplicated": true,
}

func runSyncack(pass *Pass) {
	if !pathHasSuffix(pass.Path, "internal/wal") && !pathHasSuffix(pass.Path, "internal/replica") {
		return
	}
	walkFuncs(pass.Files, func(fd *ast.FuncDecl) {
		type event struct {
			pos  token.Pos
			kind int // 0 append, 1 barrier, 2 ack
			desc string
		}
		var events []event
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			switch {
			case isSelectorCall(call, appendCalls):
				events = append(events, event{call.Pos(), 0, "append"})
			case isSelectorCall(call, barrierCalls):
				events = append(events, event{call.Pos(), 1, "barrier"})
			default:
				if desc, ok := ackWrite(call); ok {
					events = append(events, event{call.Pos(), 2, desc})
				}
			}
			return true
		})
		// Source order ~ Inspect order within one body, but nested
		// closures can interleave; sort by position to be exact.
		for i := 1; i < len(events); i++ {
			for j := i; j > 0 && events[j].pos < events[j-1].pos; j-- {
				events[j], events[j-1] = events[j-1], events[j]
			}
		}
		pendingAppend := token.NoPos
		for _, ev := range events {
			switch ev.kind {
			case 0:
				pendingAppend = ev.pos
			case 1:
				pendingAppend = token.NoPos
			case 2:
				if pendingAppend != token.NoPos {
					pass.Reportf(ev.pos, "%s written after an append at line %d with no fsync barrier between them; an acknowledged record must be durable (Sync before ack)",
						ev.desc, pass.Fset.Position(pendingAppend).Line)
				}
			}
		}
	})
}

// isSelectorCall matches <recv>.<name>(...) for any name in names.
func isSelectorCall(call *ast.CallExpr, names map[string]bool) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	return ok && names[sel.Sel.Name]
}

// ackWrite recognizes acknowledgement emission: WriteFrame(...) — or
// writeFrameRun(...), the one-Write run of acks that answers a commit
// group — whose frame literal carries Type: FrameAck or FrameWelcome
// (directly or via &Frame{...}), or a call to a method literally named
// Ack.
func ackWrite(call *ast.CallExpr) (string, bool) {
	name := ""
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		name = fun.Name
	case *ast.SelectorExpr:
		name = fun.Sel.Name
	}
	if name == "Ack" {
		return "Ack()", true
	}
	if name != "WriteFrame" && name != "writeFrame" && name != "writeFrameRun" {
		return "", false
	}
	for _, arg := range call.Args {
		lit := compositeLitOf(arg)
		if lit == nil {
			continue
		}
		for _, el := range lit.Elts {
			kv, ok := el.(*ast.KeyValueExpr)
			if !ok {
				continue
			}
			if key, ok := kv.Key.(*ast.Ident); !ok || key.Name != "Type" {
				continue
			}
			val := frameTypeName(kv.Value)
			if val == "FrameAck" || val == "FrameWelcome" {
				return val + " frame write", true
			}
		}
	}
	return "", false
}

func compositeLitOf(e ast.Expr) *ast.CompositeLit {
	switch e := e.(type) {
	case *ast.CompositeLit:
		return e
	case *ast.UnaryExpr:
		if lit, ok := e.X.(*ast.CompositeLit); ok {
			return lit
		}
	}
	return nil
}

func frameTypeName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return e.Sel.Name
	}
	return ""
}
