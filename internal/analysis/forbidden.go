package analysis

import (
	"go/ast"
	"slices"
)

// callRule fences one set of standard-library calls off from one set of
// packages, under the name of the check that reports it.
type callRule struct {
	check   string          // check name the finding is reported under
	pkgs    []string        // package-path suffixes the rule binds
	imports []string        // imported package paths the calls come from
	names   map[string]bool // the fenced functions — or, with allow, the only permitted ones
	allow   bool
	message string // diagnostic; %s is the function name
}

// deterministicPkgs are the packages bound by the determinism contract:
// results must be bit-identical across runs, so nothing on a result
// path may depend on wall-clock time, the global rand stream, or Go's
// randomized map iteration order.
var deterministicPkgs = []string{
	"internal/sim",
	"internal/engine",
	"internal/core",
	"internal/accel",
	"internal/graph",
	"internal/algo",
	"internal/native",
}

// forbiddenCalls is the one table of fenced standard-library calls.
// Duration arithmetic, time.Time values and constants remain fine
// everywhere — only calls that make *this process* observe real time,
// or draw from the process-global rand stream, are listed.
var forbiddenCalls = []callRule{
	{
		check: "determinism", pkgs: deterministicPkgs, imports: []string{"time"},
		names:   map[string]bool{"Now": true, "Since": true, "Until": true},
		message: "time.%s reads the wall clock in a deterministic package; inject a clock or pass timestamps in",
	},
	{
		// Seeded *rand.Rand instances are fine, so the constructors are
		// the permitted set.
		check: "determinism", pkgs: deterministicPkgs, imports: []string{"math/rand", "math/rand/v2"},
		names: map[string]bool{
			"New": true, "NewSource": true, "NewZipf": true,
			"NewPCG": true, "NewChaCha8": true,
		},
		allow:   true,
		message: "global math/rand.%s is process-shared and unseeded; use a seeded *rand.Rand (rand.New) owned by the caller",
	},
	{
		// The PR-8 liveness contract: lease expiry, election splays and
		// heartbeat cadence run on the injected serve.Clock so the role
		// state machine is testable on a fake clock with no real sleeps.
		check: "clockseam", pkgs: []string{"internal/replica"}, imports: []string{"time"},
		names: map[string]bool{
			"Now": true, "Since": true, "Until": true,
			"After": true, "Tick": true, "Sleep": true,
			"NewTimer": true, "NewTicker": true, "AfterFunc": true,
		},
		message: "time.%s bypasses the injected clock; route waits and timestamps through the serve.Clock seam so lease and election timing stays testable",
	},
}

// reportForbiddenCall reports call under check if one of the check's
// rules binds pkg and fences the called function.
func reportForbiddenCall(pass *Pass, pkg *Package, check string, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return
	}
	path := importedPackagePath(pkg.Info, id)
	for _, r := range forbiddenCalls {
		if r.check == check && pathHasAnySuffix(pkg.Path, r.pkgs) &&
			slices.Contains(r.imports, path) && r.names[sel.Sel.Name] != r.allow {
			pass.Reportf(pkg, call.Pos(), r.message, sel.Sel.Name)
		}
	}
}

// ClockseamCheck flags raw time-package clock and timer calls inside
// the clock-disciplined packages. All waits and timestamps there must
// flow through the injected serve.Clock (Now + context-aware Sleep),
// which is what lets the lease/election tests drive whole failover
// stories deterministically. Test files are outside the loader's file
// set, so fake clocks in _test.go never trip this.
func ClockseamCheck() *Check {
	return &Check{
		Name: "clockseam",
		Doc:  "forbid raw time.Now/Sleep/After/Timer calls in internal/replica; wall time must flow through the injected serve.Clock seam",
		Run: func(pass *Pass) {
			for _, pkg := range pass.Pkgs {
				for _, f := range pkg.Files {
					ast.Inspect(f, func(n ast.Node) bool {
						if call, ok := n.(*ast.CallExpr); ok {
							reportForbiddenCall(pass, pkg, "clockseam", call)
						}
						return true
					})
				}
			}
		},
	}
}
