package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, parsed, and type-checked package.
type Package struct {
	Path  string // import path
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
	// TypeErr records the first type-checking error, if any. Checks
	// still run over the partial information.
	TypeErr error

	fset   *token.FileSet // the FileSet that positioned Files
	module string         // the module path from go.mod
}

// Loader enumerates and type-checks the module's packages with a
// single shared FileSet and source importer, so stdlib and
// intra-module dependencies are type-checked at most once per run.
type Loader struct {
	Fset *token.FileSet

	dir        string // module root (where go.mod lives)
	modulePath string
	imp        types.Importer
}

// NewLoader returns a loader rooted at the module containing dir.
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root := abs
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("analysis: no go.mod found above %s", abs)
		}
		root = parent
	}
	modPath, err := modulePathOf(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		Fset:       fset,
		dir:        root,
		modulePath: modPath,
		imp:        importer.ForCompiler(fset, "source", nil),
	}, nil
}

// modulePathOf extracts the module path from a go.mod file.
func modulePathOf(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if strings.HasPrefix(line, "module ") {
			return strings.TrimSpace(strings.TrimPrefix(line, "module ")), nil
		}
	}
	return "", fmt.Errorf("analysis: no module directive in %s", gomod)
}

// Expand resolves command-line patterns to package directories.
// Supported forms: "./..." (every package under the module root),
// "./dir/..." (every package under dir), and plain directory paths
// ("./internal/wal", "internal/wal").
func (l *Loader) Expand(patterns []string) ([]string, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	seen := make(map[string]bool)
	var dirs []string
	add := func(d string) {
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		switch {
		case pat == "./..." || pat == "...":
			subs, err := l.walk(l.dir)
			if err != nil {
				return nil, err
			}
			for _, d := range subs {
				add(d)
			}
		case strings.HasSuffix(pat, "/..."):
			base := filepath.Join(l.dir, strings.TrimSuffix(pat, "/..."))
			subs, err := l.walk(base)
			if err != nil {
				return nil, err
			}
			for _, d := range subs {
				add(d)
			}
		default:
			d := pat
			if !filepath.IsAbs(d) {
				d = filepath.Join(l.dir, d)
			}
			st, err := os.Stat(d)
			if err != nil || !st.IsDir() {
				return nil, fmt.Errorf("analysis: %q is not a package directory", pat)
			}
			add(d)
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

// walk returns every directory under root that contains at least one
// non-test .go file, skipping testdata, hidden, and vendor trees.
func (l *Loader) walk(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if hasGoFiles(path) {
			dirs = append(dirs, path)
		}
		return nil
	})
	return dirs, err
}

func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		n := e.Name()
		if strings.HasSuffix(n, ".go") && !strings.HasSuffix(n, "_test.go") {
			return true
		}
	}
	return false
}

// importPathFor maps an absolute package directory to its import path
// within the module.
func (l *Loader) importPathFor(dir string) (string, error) {
	rel, err := filepath.Rel(l.dir, dir)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return l.modulePath, nil
	}
	if strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("analysis: %s is outside module %s", dir, l.modulePath)
	}
	return l.modulePath + "/" + filepath.ToSlash(rel), nil
}

// Load parses and type-checks the package in dir. Type-check errors
// are recorded on the returned Package, not fatal: the tree is
// expected to compile, but the suite must degrade gracefully rather
// than hide findings behind a loader abort.
func (l *Loader) Load(dir string) (*Package, error) {
	path, err := l.importPathFor(dir)
	if err != nil {
		return nil, err
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range ents {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
			continue
		}
		f, perr := parser.ParseFile(l.Fset, filepath.Join(dir, n), nil, parser.ParseComments)
		if perr != nil {
			return nil, perr
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no buildable Go files in %s", dir)
	}
	pkg, info, terr := l.TypeCheck(path, files)
	return &Package{Path: path, Files: files, Pkg: pkg, Info: info, TypeErr: terr, fset: l.Fset, module: l.modulePath}, nil
}

// TypeCheck runs go/types over already-parsed files under the given
// import path, collecting full use/def/selection information. The
// first error is returned but checking continues past it.
func (l *Loader) TypeCheck(path string, files []*ast.File) (*types.Package, *types.Info, error) {
	var firstErr error
	conf := types.Config{
		Importer: l.imp,
		Error: func(err error) {
			if firstErr == nil {
				firstErr = err
			}
		},
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	pkg, err := conf.Check(path, l.Fset, files, info)
	if firstErr == nil {
		firstErr = err
	}
	return pkg, info, firstErr
}
