// Package analysis is the project-invariant analyzer suite behind
// `tdgraph-vet`. It mechanically enforces the contracts the codebase
// established by convention and chaos tests; Checks() lists them, and
// each check's Doc (printed by `tdgraph-vet -list`) is the one
// statement of its contract.
//
// The framework is stdlib-only: go/ast + go/parser + go/types +
// go/token, with a shared source importer for cross-package type
// information. Findings can be suppressed per line with an inline
// directive carrying a mandatory reason:
//
//	//tdgraph:allow <check> <reason...>
//
// The directive suppresses diagnostics of that check on its own line
// or, when it stands alone, on the line below. An unknown check name
// or a missing reason is itself a diagnostic (check "directive") and
// cannot be suppressed.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Check is one analyzer of the suite.
type Check struct {
	// Name is the identifier used in diagnostics and in
	// //tdgraph:allow directives.
	Name string
	// Doc is the one-line contract description shown by -list.
	Doc string
	// Run inspects the loaded packages and reports findings via
	// pass.Reportf.
	Run func(pass *Pass)
}

// Pass carries everything a check needs: the loaded packages, each
// fully type-checked, and the call graph over them that the
// interprocedural checks (lockorder, lockguard, lockhold, goroleak)
// share.
type Pass struct {
	// CheckName is the name of the check currently running.
	CheckName string
	// Pkgs are the loaded packages. Checks that apply only to a subset
	// of packages (determinism, clockseam, …) gate on each Path.
	Pkgs []*Package
	// Graph is the static call graph over Pkgs.
	Graph *CallGraph
	// Counters is the registered stats counter-name table, populated
	// by the driver from internal/stats (or by a test harness). Nil
	// disables the ctrreg membership test.
	Counters map[string]bool

	diags *[]Diagnostic
}

// Reportf records one finding at pos, positioned by the FileSet of the
// package the node came from.
func (p *Pass) Reportf(pkg *Package, pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Check:    p.CheckName,
		Position: pkg.fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding, positioned for file:line:col printing.
type Diagnostic struct {
	Check    string
	Position token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Position.Filename, d.Position.Line, d.Position.Column, d.Check, d.Message)
}

// AllowDirective is the inline suppression marker.
const AllowDirective = "//tdgraph:allow"

// directive is one parsed //tdgraph:allow comment.
type directive struct {
	check  string
	reason string
	file   string
	line   token.Position // position of the comment itself
}

// parseDirectives extracts every //tdgraph:allow directive from the
// files, reporting malformed ones (unknown check, missing reason) as
// "directive" diagnostics. known maps valid check names.
func parseDirectives(fset *token.FileSet, files []*ast.File, known map[string]bool) ([]directive, []Diagnostic) {
	var dirs []directive
	var diags []Diagnostic
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, AllowDirective) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, AllowDirective)
				pos := fset.Position(c.Pos())
				if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
					continue // e.g. //tdgraph:allowance — not ours
				}
				fields := strings.Fields(rest)
				if len(fields) == 0 {
					diags = append(diags, Diagnostic{Check: "directive", Position: pos,
						Message: "malformed " + AllowDirective + ": want \"" + AllowDirective + " <check> <reason>\""})
					continue
				}
				check := fields[0]
				if !known[check] {
					diags = append(diags, Diagnostic{Check: "directive", Position: pos,
						Message: fmt.Sprintf("unknown check %q in %s directive", check, AllowDirective)})
					continue
				}
				if len(fields) < 2 {
					diags = append(diags, Diagnostic{Check: "directive", Position: pos,
						Message: fmt.Sprintf("%s %s needs a reason", AllowDirective, check)})
					continue
				}
				dirs = append(dirs, directive{
					check:  check,
					reason: strings.Join(fields[1:], " "),
					file:   pos.Filename,
					line:   pos,
				})
			}
		}
	}
	return dirs, diags
}

// suppress filters diags through the directives: a diagnostic is
// dropped when a directive for its check sits on the same line
// (trailing comment) or on the line directly above (standalone
// comment). Returns the surviving diagnostics, the suppressed ones,
// and a per-directive used flag (the stale audit's input).
func suppress(diags []Diagnostic, dirs []directive) (kept, dropped []Diagnostic, used []bool) {
	used = make([]bool, len(dirs))
	if len(dirs) == 0 {
		return diags, nil, used
	}
	type fileLine struct {
		file string
		line int
	}
	cov := make(map[string]map[fileLine][]int)
	for i, d := range dirs {
		if cov[d.check] == nil {
			cov[d.check] = make(map[fileLine][]int)
		}
		cov[d.check][fileLine{d.file, d.line.Line}] = append(cov[d.check][fileLine{d.file, d.line.Line}], i)
		cov[d.check][fileLine{d.file, d.line.Line + 1}] = append(cov[d.check][fileLine{d.file, d.line.Line + 1}], i)
	}
	kept = diags[:0]
	for _, d := range diags {
		if idxs := cov[d.Check][fileLine{d.Position.Filename, d.Position.Line}]; len(idxs) > 0 {
			for _, i := range idxs {
				used[i] = true
			}
			dropped = append(dropped, d)
			continue
		}
		kept = append(kept, d)
	}
	return kept, dropped, used
}

// sortDiagnostics orders findings by file, line, column, check.
func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Position.Filename != b.Position.Filename {
			return a.Position.Filename < b.Position.Filename
		}
		if a.Position.Line != b.Position.Line {
			return a.Position.Line < b.Position.Line
		}
		if a.Position.Column != b.Position.Column {
			return a.Position.Column < b.Position.Column
		}
		return a.Check < b.Check
	})
}

// errorType is the universe error interface, shared by checks.
var errorType = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// implementsError reports whether t satisfies the error interface.
func implementsError(t types.Type) bool {
	return types.Implements(t, errorType) || types.Implements(types.NewPointer(t), errorType)
}

// pathHasSuffix reports whether the import path is pkg or a
// subpackage of pkg (suffix match on /-separated segments).
func pathHasSuffix(path, pkg string) bool {
	if path == pkg || strings.HasSuffix(path, "/"+pkg) {
		return true
	}
	// subpackage: .../pkg/...
	if i := strings.Index(path+"/", "/"+pkg+"/"); i >= 0 {
		return true
	}
	return strings.HasPrefix(path, pkg+"/")
}

// pathHasAnySuffix is pathHasSuffix over a package set.
func pathHasAnySuffix(path string, pkgs []string) bool {
	for _, p := range pkgs {
		if pathHasSuffix(path, p) {
			return true
		}
	}
	return false
}
