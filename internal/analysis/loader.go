package analysis

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
)

// Package is one loaded, parsed, and fully type-checked package.
type Package struct {
	Path  string // import path
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	fset   *token.FileSet // the FileSet that positioned Files
	module string         // the main module's path
}

// Loader lists packages with the go command and type-checks them with
// a single shared FileSet and source importer, so stdlib and
// intra-module dependencies are type-checked at most once per run.
type Loader struct {
	Fset *token.FileSet

	dir    string // main module root
	module string // main module path
	imp    types.Importer
}

// listed is the part of a `go list -json` object the loader reads.
type listed struct {
	Path, Dir, ImportPath string
	GoFiles               []string
}

// goList runs `go list -json args...` in dir ("" for the current one).
func goList(dir string, args ...string) ([]listed, error) {
	cmd := exec.Command("go", append([]string{"list", "-json"}, args...)...)
	cmd.Dir = dir
	out, err := cmd.Output()
	if ee := (*exec.ExitError)(nil); errors.As(err, &ee) {
		return nil, fmt.Errorf("go list: %w\n%s", err, bytes.TrimSpace(ee.Stderr))
	} else if err != nil {
		return nil, err
	}
	var all []listed
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var l listed
		if err := dec.Decode(&l); err != nil {
			return nil, err
		}
		all = append(all, l)
	}
	return all, nil
}

// NewLoader returns a loader for the main module of the current
// directory.
func NewLoader() (*Loader, error) {
	mod, err := goList("", "-m")
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{Fset: fset, dir: mod[0].Dir, module: mod[0].Path, imp: importer.ForCompiler(fset, "source", nil)}, nil
}

// WholeModule reports whether patterns take in every package of the
// main module: ./... at the module root, or <module>/....
func (l *Loader) WholeModule(patterns []string) bool {
	wd, _ := os.Getwd()
	return slices.Contains(patterns, l.module+"/...") || wd == l.dir && slices.Contains(patterns, "./...")
}

// Load lists the packages matching the go command's patterns (./...
// also takes in the modules nested one directory down, as benchmark/
// is at the root) and type-checks each over the files go build
// compiles. A parse or type error fails the load.
func (l *Loader) Load(patterns []string) ([]*Package, error) {
	all, err := goList("", patterns...)
	if err != nil {
		return nil, err
	}
	if slices.Contains(patterns, "./...") {
		mods, _ := filepath.Glob(filepath.Join("*", "go.mod")) // fails only on a malformed pattern
		for _, mod := range mods {
			nested, err := goList(filepath.Dir(mod), "./...")
			if err != nil {
				return nil, err
			}
			all = append(all, nested...)
		}
	}
	pkgs := make([]*Package, 0, len(all))
	for _, lp := range all {
		var files []*ast.File
		for _, name := range lp.GoFiles {
			f, err := parser.ParseFile(l.Fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", lp.ImportPath, err)
			}
			files = append(files, f)
		}
		pkg, err := l.check(lp.ImportPath, files)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// check type-checks parsed files as the package at path, recording
// full use/def/selection information.
func (l *Loader) check(path string, files []*ast.File) (*Package, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: l.imp}
	pkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &Package{Path: path, Files: files, Pkg: pkg, Info: info, fset: l.Fset, module: l.module}, nil
}
