package analysis

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// HotallocCheck guards the zero-allocation contract of the native hot
// path (BENCH_native.json: 0 allocs/batch). Functions marked with a
// `//tdgraph:hot` doc comment — native.Session's ApplyBatch and
// propagate among them — define the hot set; everything statically
// reachable from it inside the module is scanned for heap-escaping
// constructs:
//
//   - function literals (closure headers allocate) — except a literal
//     that is the immediate operand of a defer, whose body only runs
//     on the panic/return edge and is skipped entirely;
//   - make(), new(), and map/slice composite literals;
//   - fmt.* calls (interface boxing plus formatting buffers) —
//     arguments of panic(...) are exempt, dying is allowed to
//     allocate;
//   - append to a slice born empty in the same function (grows every
//     call); appends to fields, parameters, and derived locals are
//     the buffer-reuse idiom and pass;
//   - interface boxing at call sites: a non-pointer concrete argument
//     passed to an interface parameter.
//
// Findings name the hot entry and the call chain that reaches the
// offending function, so the fix (or the reasoned waiver) is written
// at the right level.
func HotallocCheck() *Check {
	return &Check{
		Name: "hotalloc",
		Doc:  "functions on the //tdgraph:hot + native propagate/apply paths must not heap-allocate",
		Run:  runHotalloc,
	}
}

// HotMarker tags a function's doc comment into the hot set.
const HotMarker = "//tdgraph:hot"

func runHotalloc(pass *Pass) {
	entries := hotEntries(pass.Graph)
	if len(entries) == 0 {
		return
	}
	// hotEntries iterates a map; sort so the BFS predecessor choice —
	// and with it the chain rendered in each message — is stable.
	sort.Strings(entries)
	reached := pass.Graph.Reachable(entries)
	for name := range reached {
		scanHotFunc(pass, pass.Graph.Funcs[name], hotChain(reached, name))
	}
}

// hotEntries collects the //tdgraph:hot-marked functions.
func hotEntries(g *CallGraph) []string {
	var out []string
	for name, node := range g.Funcs {
		if node.Decl.Doc == nil {
			continue
		}
		for _, c := range node.Decl.Doc.List {
			if rest, ok := strings.CutPrefix(c.Text, HotMarker); ok && (rest == "" || rest[0] == ' ' || rest[0] == '\t') {
				out = append(out, name)
			}
		}
	}
	return out
}

// hotChain renders "entry → … → fn" from the Reachable predecessor
// map, for diagnostics.
func hotChain(reached map[string]string, name string) string {
	var rev []string
	for cur := name; ; {
		rev = append(rev, shortFuncName(cur))
		pred := reached[cur]
		if pred == cur || pred == "" || len(rev) > 8 {
			break
		}
		cur = pred
	}
	var b strings.Builder
	for i := len(rev) - 1; i >= 0; i-- {
		if b.Len() > 0 {
			b.WriteString(" -> ")
		}
		b.WriteString(rev[i])
	}
	return b.String()
}

func scanHotFunc(pass *Pass, node *FuncNode, chain string) {
	info := node.Pkg.Info
	fresh := freshLocalSlices(info, node.Decl)
	report := func(n ast.Node, what string) {
		pass.Reportf(node.Pkg, n.Pos(), "%s on hot path (%s)", what, chain)
	}
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			// A deferred literal's body runs on the exit edge, not per
			// operation; skip it wholesale (the recover pattern).
			if _, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok {
				return false
			}
		case *ast.FuncLit:
			report(n, "closure allocation")
			return false
		case *ast.CompositeLit:
			switch info.TypeOf(n).Underlying().(type) {
			case *types.Map:
				report(n, "map literal allocates")
			case *types.Slice:
				report(n, "slice literal allocates")
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
				switch id.Name {
				case "panic":
					// Dying may allocate: skip the argument subtree.
					if isBuiltin(info, id) {
						return false
					}
				case "make":
					if isBuiltin(info, id) {
						report(n, "make allocates")
					}
				case "new":
					if isBuiltin(info, id) {
						report(n, "new allocates")
					}
				case "append":
					if isBuiltin(info, id) && len(n.Args) > 0 {
						if dest, ok := ast.Unparen(n.Args[0]).(*ast.Ident); ok {
							obj := info.Uses[dest]
							if obj != nil && fresh[obj] {
								report(n, "append to a slice born empty here grows every call")
							}
						}
					}
				}
				if !isBuiltin(info, id) {
					reportBoxingArgs(info, n, report)
				}
				return true
			}
			callee := resolveCallee(info, n)
			if strings.HasPrefix(callee, "fmt.") {
				report(n, shortFuncName(callee)+" allocates")
				return true
			}
			reportBoxingArgs(info, n, report)
		}
		return true
	}
	ast.Inspect(node.Decl.Body, walk)
}

// freshLocalSlices finds slice variables born empty inside fd:
// `var x []T`, `x := []T{}` / `[]T{...}`? (no — only empty), or
// `x := make([]T, …)`. Appending to those per call is a growth loop;
// appending to anything else (field, param, derived local) is the
// reuse idiom and exempt.
func freshLocalSlices(info *types.Info, fd *ast.FuncDecl) map[types.Object]bool {
	out := map[types.Object]bool{}
	mark := func(id *ast.Ident) {
		if obj := info.Defs[id]; obj != nil {
			if _, ok := obj.Type().Underlying().(*types.Slice); ok {
				out[obj] = true
			}
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeclStmt:
			gd, ok := n.Decl.(*ast.GenDecl)
			if !ok {
				return true
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Values) != 0 {
					continue
				}
				for _, name := range vs.Names {
					mark(name)
				}
			}
		case *ast.AssignStmt:
			if n.Tok.String() != ":=" || len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				switch rhs := ast.Unparen(n.Rhs[i]).(type) {
				case *ast.CompositeLit:
					if len(rhs.Elts) == 0 {
						mark(id)
					}
				case *ast.CallExpr:
					if fid, ok := ast.Unparen(rhs.Fun).(*ast.Ident); ok && fid.Name == "make" && isBuiltin(info, fid) {
						mark(id)
					}
				}
			}
		}
		return true
	})
	return out
}

// reportBoxingArgs flags non-pointer concrete arguments passed to
// interface parameters (the conversion allocates; a pointer fits the
// interface word and does not).
func reportBoxingArgs(info *types.Info, call *ast.CallExpr, report func(ast.Node, string)) {
	tv, ok := info.Types[call.Fun]
	if !ok || tv.IsType() || tv.Type == nil {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		if call.Ellipsis.IsValid() && i == len(call.Args)-1 {
			continue // slice passed through, no per-element box
		}
		var pt types.Type
		switch {
		case i < params.Len()-1 || (!sig.Variadic() && i < params.Len()):
			pt = params.At(i).Type()
		case sig.Variadic() && params.Len() > 0:
			if s, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
				pt = s.Elem()
			}
		}
		if pt == nil || !types.IsInterface(pt) {
			continue
		}
		at := info.TypeOf(arg)
		if types.IsInterface(at) {
			continue
		}
		switch at.Underlying().(type) {
		case *types.Pointer, *types.Signature, *types.Chan, *types.Map:
			continue // pointer-shaped: no box
		case *types.Basic:
			if at.Underlying().(*types.Basic).Kind() == types.UntypedNil {
				continue
			}
		}
		report(arg, "argument boxes into interface parameter "+pt.String())
	}
}

// isBuiltin reports whether the ident resolves to a universe builtin.
func isBuiltin(info *types.Info, id *ast.Ident) bool {
	_, ok := info.Uses[id].(*types.Builtin)
	return ok
}
