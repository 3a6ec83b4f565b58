package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// DeterminismCheck flags nondeterminism sources inside the
// deterministic packages:
//
//   - wall-clock reads and package-level math/rand functions (the
//     determinism rows of the forbiddenCalls table);
//   - range over a map whose body feeds an order-sensitive sink:
//     appending to a slice, writing through an incremented slice
//     index, building text (fmt.Fprint*/Sprintf accumulation,
//     strings.Builder/bytes.Buffer writes), or sending on a channel.
//     The sorted-extraction idiom — append the keys, then sort the
//     slice in the same function — is recognized and exempt.
//
// Map-to-map copies and pure scalar accumulation inside a map range
// are order-insensitive and never flagged.
func DeterminismCheck() *Check {
	return &Check{
		Name: "determinism",
		Doc:  "forbid wall-clock, global rand, and order-sensitive map iteration in the deterministic packages (PR-1 bit-identical contract)",
		Run:  runDeterminism,
	}
}

func runDeterminism(pass *Pass) {
	if !pathHasAnySuffix(pass.Path, deterministicPkgs) {
		return
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				reportForbiddenCall(pass, "determinism", n)
			case *ast.RangeStmt:
				checkMapRange(pass, n, f)
			}
			return true
		})
	}
}

// importedPackagePath resolves an identifier used as a package
// qualifier to the imported package path, or "" when it is not a
// package name (or type info is missing).
func importedPackagePath(pass *Pass, id *ast.Ident) string {
	if pass.Info != nil {
		if obj, ok := pass.Info.Uses[id]; ok {
			if pn, ok := obj.(*types.PkgName); ok {
				return pn.Imported().Path()
			}
			return "" // a variable or type shadowing a package name
		}
	}
	// Fallback without type info: trust the conventional names.
	switch id.Name {
	case "time":
		return "time"
	case "rand":
		return "math/rand"
	}
	return ""
}

// checkMapRange flags order-sensitive sinks inside a range over a map.
func checkMapRange(pass *Pass, rng *ast.RangeStmt, file *ast.File) {
	if !isMapType(pass, rng.X) {
		return
	}
	enclosing := enclosingFunc(file, rng.Pos())
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			if n != rng && isMapType(pass, n.X) {
				return true // the nested range reports its own body
			}
		case *ast.AssignStmt:
			checkAssignSink(pass, rng, n, enclosing)
		case *ast.CallExpr:
			if name, ok := textSink(pass, n); ok {
				pass.Reportf(n.Pos(), "%s inside a map range emits in map-iteration order; collect and sort first", name)
			}
		case *ast.SendStmt:
			pass.Reportf(n.Pos(), "channel send inside a map range publishes values in map-iteration order; collect and sort first")
		}
		return true
	})
}

// checkAssignSink flags order-sensitive assignments in a map-range
// body: x = append(x, ...) (unless x is sorted later in the same
// function), s += expr string accumulation, and slice[i] writes where
// i advances inside the loop.
func checkAssignSink(pass *Pass, rng *ast.RangeStmt, as *ast.AssignStmt, enclosing *ast.FuncDecl) {
	// s += ... string accumulation.
	if as.Tok.String() == "+=" && len(as.Lhs) == 1 && isStringType(pass, as.Lhs[0]) {
		pass.Reportf(as.Pos(), "string concatenation inside a map range builds output in map-iteration order; collect and sort first")
		return
	}
	for i, rhs := range as.Rhs {
		call, ok := rhs.(*ast.CallExpr)
		if !ok {
			continue
		}
		fn, ok := call.Fun.(*ast.Ident)
		if !ok || fn.Name != "append" || i >= len(as.Lhs) {
			continue
		}
		target, ok := as.Lhs[i].(*ast.Ident)
		if !ok {
			// append into a field or element: conservatively flag.
			pass.Reportf(as.Pos(), "append inside a map range accumulates in map-iteration order; sort the result or iterate a sorted key slice")
			continue
		}
		if sortedAfter(pass, enclosing, rng, target) {
			continue // sorted-extraction idiom: for k := range m { keys = append(keys, k) }; sort(keys)
		}
		pass.Reportf(as.Pos(), "append to %q inside a map range accumulates in map-iteration order; sort %q afterwards or iterate a sorted key slice", target.Name, target.Name)
	}
	// slice[i] = ... with i advanced in the loop body.
	for _, lhs := range as.Lhs {
		ix, ok := lhs.(*ast.IndexExpr)
		if !ok || !isSliceType(pass, ix.X) {
			continue
		}
		id, ok := ix.Index.(*ast.Ident)
		if !ok {
			continue
		}
		if identAdvancedIn(rng.Body, id, as) {
			pass.Reportf(as.Pos(), "indexed slice write with a counter advanced inside a map range stores values in map-iteration order; sort afterwards or iterate a sorted key slice")
		}
	}
}

// textSink reports whether the call writes formatted text to an
// accumulating destination (fmt.Fprint* family, (*strings.Builder) /
// (*bytes.Buffer) Write* methods).
func textSink(pass *Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	if id, ok := sel.X.(*ast.Ident); ok {
		if importedPackagePath(pass, id) == "fmt" {
			switch sel.Sel.Name {
			case "Fprintf", "Fprint", "Fprintln":
				return "fmt." + sel.Sel.Name, true
			}
			return "", false
		}
	}
	switch sel.Sel.Name {
	case "WriteString", "WriteByte", "WriteRune":
	default:
		return "", false
	}
	t := exprType(pass, sel.X)
	if t == nil {
		return "", false
	}
	switch trimPointer(t).String() {
	case "strings.Builder", "bytes.Buffer":
		return trimPointer(t).String() + "." + sel.Sel.Name, true
	}
	return "", false
}

// sortedAfter reports whether target is passed to a sort call
// (sort.Strings / sort.Ints / sort.Slice / sort.Sort / slices.Sort*)
// anywhere in the enclosing function after the range statement.
func sortedAfter(pass *Pass, fn *ast.FuncDecl, rng *ast.RangeStmt, target *ast.Ident) bool {
	if fn == nil {
		return false
	}
	found := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() || found {
			return !found
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkg, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		p := importedPackagePath(pass, pkg)
		if p != "sort" && p != "slices" {
			return true
		}
		for _, arg := range call.Args {
			if id, ok := arg.(*ast.Ident); ok && id.Name == target.Name {
				found = true
			}
		}
		return true
	})
	return found
}

// identAdvancedIn reports whether id is incremented or reassigned
// inside body at a statement other than at.
func identAdvancedIn(body *ast.BlockStmt, id *ast.Ident, at ast.Node) bool {
	advanced := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IncDecStmt:
			if x, ok := n.X.(*ast.Ident); ok && x.Name == id.Name {
				advanced = true
			}
		case *ast.AssignStmt:
			if n == at {
				return true
			}
			for _, lhs := range n.Lhs {
				if x, ok := lhs.(*ast.Ident); ok && x.Name == id.Name {
					advanced = true
				}
			}
		}
		return !advanced
	})
	return advanced
}

// enclosingFunc returns the function declaration containing pos.
func enclosingFunc(file *ast.File, pos token.Pos) *ast.FuncDecl {
	for _, d := range file.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil && fd.Pos() <= pos && pos < fd.End() {
			return fd
		}
	}
	return nil
}

// --- small type helpers (nil-tolerant: missing info means "unknown") ---

func exprType(pass *Pass, e ast.Expr) types.Type {
	if pass.Info == nil {
		return nil
	}
	if tv, ok := pass.Info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

func trimPointer(t types.Type) types.Type {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		return p.Elem()
	}
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

func isMapType(pass *Pass, e ast.Expr) bool {
	t := exprType(pass, e)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

func isSliceType(pass *Pass, e ast.Expr) bool {
	t := exprType(pass, e)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Slice)
	return ok
}

func isStringType(pass *Pass, e ast.Expr) bool {
	t := exprType(pass, e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}
