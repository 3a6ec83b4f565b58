package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// CallGraph is the module-wide static call graph the interprocedural
// checks (lockorder, lockguard, lockhold, hotalloc, goroleak) share.
// Nodes are keyed by types.Func.FullName() — a string key, because each
// loaded package is type-checked in its own universe and the same
// function reached through an import is a distinct *types.Func object;
// the FullName is stable across universes.
//
// Edges are static only: direct calls to declared functions and
// methods on concrete receivers. Calls through interfaces, function
// values, and closures have no edge — every consumer must treat a
// missing edge as "unknown", never as "proof of absence".
type CallGraph struct {
	// Funcs maps FullName → node for every function/method declared in
	// the loaded packages.
	Funcs map[string]*FuncNode

	// lazily computed lock analysis shared by lockorder, lockguard and
	// lockhold (one CallGraph instance serves every check of a run).
	locks *lockAnalysis
}

// FuncNode is one declared function or method.
type FuncNode struct {
	Name string // types.Func FullName
	Decl *ast.FuncDecl
	Pkg  *Package
	// Calls lists the resolved static call sites in body order.
	// Callees outside the module (net.Dial, sync methods, …) appear
	// here too; they just have no FuncNode of their own.
	Calls []CallSite
}

// CallSite is one resolved static call.
type CallSite struct {
	Call   *ast.CallExpr
	Callee string // FullName of the target
}

// BuildCallGraph indexes every function declared in pkgs and resolves
// their static call sites.
func BuildCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{Funcs: make(map[string]*FuncNode)}
	for _, pkg := range pkgs {
		pkg := pkg
		walkFuncs(pkg.Files, func(fd *ast.FuncDecl) {
			obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				return
			}
			node := &FuncNode{Name: obj.FullName(), Decl: fd, Pkg: pkg}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if callee := resolveCallee(pkg.Info, call); callee != "" {
					node.Calls = append(node.Calls, CallSite{Call: call, Callee: callee})
				}
				return true
			})
			g.Funcs[node.Name] = node
		})
	}
	return g
}

// resolveCallee names the static target of a call, or "" when the
// target is dynamic (interface method, func value, closure, builtin,
// conversion).
func resolveCallee(info *types.Info, call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f.FullName()
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if sel.Kind() != types.MethodVal {
				return "" // method expression / field of func type
			}
			f, ok := sel.Obj().(*types.Func)
			if !ok {
				return ""
			}
			// An interface method has no body anywhere we can follow.
			if types.IsInterface(sel.Recv()) {
				return ""
			}
			// A method of an instantiated generic type is keyed by its
			// declaration, not by the instance's type arguments.
			return f.Origin().FullName()
		}
		// Package-qualified call: fmt.Sprintf, net.Dial, …
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f.FullName()
		}
	}
	return ""
}

// Reachable returns the set of module functions reachable from the
// entry FullNames (inclusive) over static edges, mapping each reached
// function to the entry-side caller that first reached it (entries map
// to themselves) so diagnostics can name the hot path.
func (g *CallGraph) Reachable(entries []string) map[string]string {
	reached := make(map[string]string)
	var queue []string
	for _, e := range entries {
		if g.Funcs[e] != nil && reached[e] == "" {
			reached[e] = e
			queue = append(queue, e)
		}
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		node := g.Funcs[cur]
		for _, site := range node.Calls {
			if g.Funcs[site.Callee] == nil || reached[site.Callee] != "" {
				continue
			}
			reached[site.Callee] = cur
			queue = append(queue, site.Callee)
		}
	}
	return reached
}

// shortFuncName renders a FullName for diagnostics: strip the import
// path prefix so messages read "(*replica.Node).demote" instead of
// the full module path.
func shortFuncName(full string) string {
	i := strings.LastIndex(full, "/")
	if i < 0 {
		return full
	}
	prefix := ""
	switch {
	case strings.HasPrefix(full, "(*"):
		prefix = "(*"
	case strings.HasPrefix(full, "("):
		prefix = "("
	}
	return prefix + full[i+1:]
}
