package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// CtrregCheck verifies that every compile-time-constant counter name
// used at a stats.Collector increment site (Inc/Add/Set) is declared
// in the internal/stats counter table (the Ctr* constants). A name
// invented at a call site compiles and counts, but the bench harness,
// experiment renderers, and dashboards only know the table — a typo'd
// or unregistered counter silently disappears from every report.
//
// Dynamic names (built at runtime, e.g. a validator class prefix) are
// skipped: membership cannot be decided statically.
func CtrregCheck() *Check {
	return &Check{
		Name: "ctrreg",
		Doc:  "require counter names at stats.Collector increment sites to be declared in the internal/stats table",
		Run:  runCtrreg,
	}
}

var incrementMethods = map[string]bool{"Inc": true, "Add": true, "Set": true}

func runCtrreg(pass *Pass) {
	if pass.Counters == nil {
		return // no registry available (stats package failed to load)
	}
	for _, pkg := range pass.Pkgs {
		if pathHasSuffix(pkg.Path, "internal/stats") {
			continue // the table's own package defines, not consumes
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || !incrementMethods[sel.Sel.Name] || len(call.Args) == 0 {
					return true
				}
				if !isStatsCollector(pkg.Info, sel) {
					return true
				}
				name, isConst := constantStringArg(pkg.Info, call.Args[0])
				if !isConst {
					return true
				}
				if !pass.Counters[name] {
					pass.Reportf(pkg, call.Args[0].Pos(), "counter %q is not declared in the internal/stats table; add a Ctr constant (or fix the typo) so reports can see it", name)
				}
				return true
			})
		}
	}
}

// isStatsCollector reports whether the method receiver is the stats
// Collector type (directly or through a pointer).
func isStatsCollector(info *types.Info, sel *ast.SelectorExpr) bool {
	s := trimPointer(info.TypeOf(sel.X)).String()
	if !strings.HasSuffix(s, ".Collector") {
		return false
	}
	return strings.Contains(s, "internal/stats.") || s == "stats.Collector"
}
