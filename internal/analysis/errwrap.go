package analysis

import (
	"go/ast"
	"go/constant"
	"go/types"
	"strings"
)

// ErrwrapCheck enforces the typed-error contract pinned by
// errors_test.go:
//
//   - an error value passed to fmt.Errorf must be formatted with %w,
//     not %v or %s — otherwise the chain is flattened to text and
//     errors.Is / errors.As dispatch (recovery, fencing, retry
//     classification) silently stops working;
//   - a typed error (a struct type named *Error) must be constructed
//     by the package that owns it; foreign packages compose errors
//     through the owner's constructors and sentinels so the wrapping
//     contract lives in exactly one place.
func ErrwrapCheck() *Check {
	return &Check{
		Name: "errwrap",
		Doc:  "require %w when wrapping error values and in-package construction of typed errors (errors.Is/As contract)",
		Run:  runErrwrap,
	}
}

func runErrwrap(pass *Pass) {
	for _, pkg := range pass.Pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					checkErrorfVerbs(pass, pkg, n)
				case *ast.CompositeLit:
					checkForeignTypedError(pass, pkg, n)
				}
				return true
			})
		}
	}
}

// checkErrorfVerbs maps fmt.Errorf format verbs to arguments and
// flags error-typed arguments rendered with %v or %s.
func checkErrorfVerbs(pass *Pass, pkg *Package, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Errorf" {
		return
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok || importedPackagePath(pkg.Info, id) != "fmt" {
		return
	}
	if len(call.Args) < 2 {
		return
	}
	format, ok := constantStringArg(pkg.Info, call.Args[0])
	if !ok {
		return // dynamic format string: nothing to map verbs against
	}
	verbs := formatVerbs(format)
	for i, verb := range verbs {
		argIdx := 1 + i
		if argIdx >= len(call.Args) {
			break // malformed call; go vet's printf check owns that
		}
		if verb != 'v' && verb != 's' {
			continue
		}
		arg := call.Args[argIdx]
		if implementsError(pkg.Info.TypeOf(arg)) {
			pass.Reportf(pkg, arg.Pos(), "error value formatted with %%%c loses the chain for errors.Is/errors.As; wrap it with %%w", verb)
		}
	}
}

// formatVerbs returns the verb letter for each argument-consuming verb
// of a printf format string, in argument order. Flags, width, and
// precision are skipped; '*' width/precision entries consume an
// argument and are returned as '*'.
func formatVerbs(format string) []byte {
	var verbs []byte
	for i := 0; i < len(format); i++ {
		if format[i] != '%' {
			continue
		}
		i++
		for i < len(format) {
			c := format[i]
			if c == '%' {
				break // literal %%
			}
			if c == '*' {
				verbs = append(verbs, '*')
				i++
				continue
			}
			if strings.IndexByte("+-# 0123456789.[]", c) >= 0 {
				i++
				continue
			}
			verbs = append(verbs, c)
			break
		}
	}
	return verbs
}

// constantStringArg resolves e to a compile-time string.
func constantStringArg(info *types.Info, e ast.Expr) (string, bool) {
	if tv := info.Types[e]; tv.Value != nil && tv.Value.Kind() == constant.String {
		return constant.StringVal(tv.Value), true
	}
	return "", false
}

// checkForeignTypedError flags composite literals of a typed error
// (struct type whose name ends in "Error" and which implements error)
// defined in a different package of this module.
func checkForeignTypedError(pass *Pass, pkg *Package, lit *ast.CompositeLit) {
	named, ok := pkg.Info.TypeOf(lit).(*types.Named)
	if !ok {
		return
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg() == pkg.Pkg {
		return
	}
	if !strings.HasSuffix(obj.Name(), "Error") || !implementsError(named) {
		return
	}
	if _, ok := named.Underlying().(*types.Struct); !ok {
		return
	}
	// Only police this module's own error contract; third-party and
	// stdlib types are out of scope (and there are none today).
	if !strings.HasPrefix(obj.Pkg().Path(), pkg.module) {
		return
	}
	pass.Reportf(pkg, lit.Pos(), "constructing %s.%s outside its owning package; use the owner's constructor or sentinel so the wrapping contract stays in one place",
		obj.Pkg().Name(), obj.Name())
}
