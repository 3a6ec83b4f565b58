package analysis

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/constant"
	"go/types"
	"io"
	"strings"
)

// Checks returns the full suite in stable order.
func Checks() []*Check {
	return []*Check{
		DeterminismCheck(),
		ClockseamCheck(),
		ErrwrapCheck(),
		LockorderCheck(),
		CtrregCheck(),
		LockguardCheck(),
		LockholdCheck(),
		GoroleakCheck(),
	}
}

// checkNames returns the valid-name set for directive validation.
func checkNames(checks []*Check) map[string]bool {
	m := make(map[string]bool, len(checks))
	for _, c := range checks {
		m[c.Name] = true
	}
	return m
}

// SuiteOptions tunes one RunSuite invocation.
type SuiteOptions struct {
	// Counters seeds the ctrreg registry.
	Counters map[string]bool
	// AuditStale reports a "directive" finding for every
	// //tdgraph:allow that suppressed nothing.
	AuditStale bool
}

// SuiteResult is what RunSuite produced, sorted by position.
type SuiteResult struct {
	// Findings are the surviving diagnostics (including directive
	// validation and stale-directive audit findings).
	Findings []Diagnostic
	// Suppressed are the diagnostics a //tdgraph:allow absorbed —
	// kept for -json so waived debt stays visible to tooling.
	Suppressed []Diagnostic
}

// RunSuite runs each check over the packages (sharing one call graph),
// then applies suppression directives globally. Directive names are
// validated against the checks run.
func RunSuite(checks []*Check, pkgs []*Package, opts SuiteOptions) SuiteResult {
	var diags []Diagnostic
	graph := BuildCallGraph(pkgs)
	for _, c := range checks {
		c.Run(&Pass{CheckName: c.Name, Pkgs: pkgs, Graph: graph, Counters: opts.Counters, diags: &diags})
	}

	known := checkNames(checks)
	var dirs []directive
	var dirDiags []Diagnostic
	for _, pkg := range pkgs {
		ds, dd := parseDirectives(pkg.fset, pkg.Files, known)
		dirs = append(dirs, ds...)
		dirDiags = append(dirDiags, dd...)
	}
	kept, suppressed, used := suppress(diags, dirs)
	kept = append(kept, dirDiags...)
	if opts.AuditStale {
		for i, d := range dirs {
			if used[i] {
				continue
			}
			kept = append(kept, Diagnostic{Check: "directive", Position: d.line,
				Message: fmt.Sprintf("stale %s %s: no %s diagnostic on the covered lines; remove the waiver", AllowDirective, d.check, d.check)})
		}
	}
	sortDiagnostics(kept)
	sortDiagnostics(suppressed)
	return SuiteResult{Findings: kept, Suppressed: suppressed}
}

// CounterTable extracts the registered counter names from a loaded
// internal/stats package: the values of every package-level string
// constant whose name starts with "Ctr".
func CounterTable(pkg *types.Package) map[string]bool {
	out := make(map[string]bool)
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		if !strings.HasPrefix(name, "Ctr") {
			continue
		}
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok {
			continue
		}
		if v := c.Val(); v.Kind() == constant.String {
			out[constant.StringVal(v)] = true
		}
	}
	return out
}

// Main is the tdgraph-vet driver, factored out of cmd/tdgraph-vet so
// the exit-code and output contract is unit-testable. It loads the
// packages matched by args (default ./...), runs the suite, prints
// one "file:line:col: check: message" line per finding to stdout, and
// returns the process exit code: 0 clean, 1 findings, 2 usage or load
// failure.
func Main(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tdgraph-vet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list the checks and exit")
	jsonOut := fs.Bool("json", false, "emit one JSON object per diagnostic (suppressed ones included) instead of text")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: tdgraph-vet [-list] [-json] [packages]\n\n"+
			"Runs the TDGraph project-invariant analyzers over the given package\n"+
			"patterns (default ./...). Suppress a finding with an inline\n"+
			"directive carrying a reason: %s <check> <reason>\n\nChecks:\n", AllowDirective)
		for _, c := range Checks() {
			fmt.Fprintf(stderr, "  %-12s %s\n", c.Name, c.Doc)
		}
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	checks := Checks()
	if *list {
		for _, c := range checks {
			fmt.Fprintf(stdout, "%-12s %s\n", c.Name, c.Doc)
		}
		return 0
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	loader, err := NewLoader()
	var pkgs []*Package
	if err == nil {
		pkgs, err = loader.Load(patterns)
	}
	if err != nil {
		fmt.Fprintf(stderr, "tdgraph-vet: %v\n", err)
		return 2
	}

	// ctrreg's registry comes from internal/stats whether or not the
	// patterns load it.
	var counters map[string]bool
	if tp, err := loader.imp.Import(loader.module + "/internal/stats"); err == nil {
		counters = CounterTable(tp)
	}

	// A waiver can hang on a call into a package the patterns leave
	// out, whose facts the call graph then lacks, so only a run over
	// the whole module can tell that it covers nothing.
	res := RunSuite(checks, pkgs, SuiteOptions{Counters: counters, AuditStale: loader.WholeModule(patterns)})
	// Output names files relative to the module root, for stable,
	// readable output.
	for _, ds := range [][]Diagnostic{res.Findings, res.Suppressed} {
		for i := range ds {
			ds[i].Position.Filename = strings.TrimPrefix(ds[i].Position.Filename, loader.dir+"/")
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		for _, d := range res.Findings {
			_ = enc.Encode(jsonDiag(d, false))
		}
		for _, d := range res.Suppressed {
			_ = enc.Encode(jsonDiag(d, true))
		}
	} else {
		for _, d := range res.Findings {
			fmt.Fprintln(stdout, d)
		}
	}
	if n := len(res.Findings); n > 0 {
		fmt.Fprintf(stderr, "tdgraph-vet: %d finding(s)\n", n)
		return 1
	}
	return 0
}

// JSONDiagnostic is the -json wire format: one object per line, with
// module-relative file paths. Suppressed diagnostics are emitted too
// (suppressed=true) so tooling can track waived debt; they do not
// affect the exit code.
type JSONDiagnostic struct {
	Check      string `json:"check"`
	File       string `json:"file"`
	Line       int    `json:"line"`
	Col        int    `json:"col"`
	Msg        string `json:"msg"`
	Suppressed bool   `json:"suppressed"`
}

func jsonDiag(d Diagnostic, suppressed bool) JSONDiagnostic {
	return JSONDiagnostic{
		Check:      d.Check,
		File:       d.Position.Filename,
		Line:       d.Position.Line,
		Col:        d.Position.Column,
		Msg:        d.Message,
		Suppressed: suppressed,
	}
}

// walkFuncs invokes fn for every function or method body in the files.
func walkFuncs(files []*ast.File, fn func(decl *ast.FuncDecl)) {
	for _, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				fn(fd)
			}
		}
	}
}
