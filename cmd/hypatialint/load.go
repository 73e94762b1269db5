package main

import (
	"fmt"
	"go/ast"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// pkg is one loaded, type-checked package ready for linting.
type pkg struct {
	path  string // import path, e.g. hypatia/internal/sim
	dir   string // absolute directory
	fset  *token.FileSet
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// loader discovers, parses, and type-checks packages of the current module
// using only the standard library: module-local imports are resolved by
// mapping the import path onto the module directory tree, and everything
// else (the standard library) goes through the source importer rooted at
// GOROOT. No `go list` subprocess, no external dependencies.
type loader struct {
	fset   *token.FileSet
	std    types.Importer
	root   string // module root directory (absolute)
	module string // module path from go.mod
	cache  map[string]*pkg
	// loading guards against import cycles, which would otherwise recurse
	// forever; Go forbids them, so hitting one is a hard error.
	loading map[string]bool
}

// newLoader locates the enclosing module of dir and returns a loader for it.
func newLoader(dir string) (*loader, error) {
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
			return nil, fmt.Errorf("no go.mod found above %s", abs)
		}
		root = parent
	}
	mod, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &loader{
		fset:    fset,
		std:     importer.ForCompiler(fset, "source", nil),
		root:    root,
		module:  mod,
		cache:   map[string]*pkg{},
		loading: map[string]bool{},
	}, nil
}

// modulePath extracts the module path from a go.mod file.
func modulePath(file string) (string, error) {
	data, err := os.ReadFile(file)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("%s: no module directive", file)
}

// importPath maps an absolute package directory to its import path.
func (l *loader) importPath(dir string) (string, error) {
	rel, err := filepath.Rel(l.root, dir)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return l.module, nil
	}
	return l.module + "/" + filepath.ToSlash(rel), nil
}

// Import implements types.Importer: module-local packages come from source
// under the module root, everything else from the standard library.
func (l *loader) Import(path string) (*types.Package, error) {
	if l.local(path) {
		p, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return p.types, nil
	}
	return l.std.Import(path)
}

// local reports whether path names the module or a package inside it.
func (l *loader) local(path string) bool {
	return path == l.module || strings.HasPrefix(path, l.module+"/")
}

// load parses and type-checks the package at the given module-local import
// path, memoized.
func (l *loader) load(path string) (*pkg, error) {
	if p, ok := l.cache[path]; ok {
		return p, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	dir := filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, l.module), "/")))
	p, err := l.loadDir(path, dir)
	if err != nil {
		return nil, err
	}
	l.cache[path] = p
	return p, nil
}

// loadDir parses the non-test Go files of one directory and type-checks
// them as a single package. Type errors are collected on the package rather
// than aborting, so the linter can still run over partially broken code,
// but a package that fails to parse at all is an error.
func (l *loader) loadDir(path, dir string) (*pkg, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") ||
			strings.HasSuffix(n, "_test.go") || strings.HasPrefix(n, ".") {
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("%s: no Go files", dir)
	}
	var files []*ast.File
	for _, n := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, n), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		if !buildTagsMatch(f) {
			continue
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("%s: no Go files match the build configuration", dir)
	}

	var typeErrs []error
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Defs:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil && tpkg == nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(typeErrs) > 0 {
		fmt.Fprintf(os.Stderr, "hypatialint: %s: %d type error(s); results may be incomplete (first: %v)\n",
			path, len(typeErrs), typeErrs[0])
	}
	return &pkg{path: path, dir: dir, fset: l.fset, files: files, types: tpkg, info: info}, nil
}

// buildTagsMatch evaluates a file's //go:build constraint (if any) against
// the default build configuration: the host GOOS/GOARCH, the gc compiler,
// all go1.N version tags, and no custom tags. Files excluded by default —
// such as the hypatia_checks assertion variant — are skipped so paired
// tag-gated files do not look like redeclarations.
func buildTagsMatch(f *ast.File) bool {
	for _, cg := range f.Comments {
		if cg.Pos() > f.Package {
			break // build constraints must precede the package clause
		}
		for _, c := range cg.List {
			if !constraint.IsGoBuild(c.Text) {
				continue
			}
			expr, err := constraint.Parse(c.Text)
			if err != nil {
				return true // malformed: let the type checker complain
			}
			return expr.Eval(func(tag string) bool {
				return tag == runtime.GOOS || tag == runtime.GOARCH ||
					tag == "gc" || strings.HasPrefix(tag, "go1.")
			})
		}
	}
	return true
}

// expandPatterns turns command-line package patterns (`./...`, `./cmd/foo`,
// or import-path-style `hypatia/internal/sim`) into the set of package
// directories to lint, relative to the working directory. Directories named
// testdata, vendor, or starting with "." or "_" are skipped during `...`
// expansion unless the pattern root itself points into them (so the tool's
// own fixtures can be linted explicitly).
func expandPatterns(l *loader, patterns []string) ([]string, error) {
	var dirs []string
	seen := map[string]bool{}
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		if l.local(pat) {
			// Import-path form: rebase onto the module root.
			pat = filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(pat, l.module)))
		}
		recursive := false
		if strings.HasSuffix(pat, "/...") || pat == "..." {
			recursive = true
			pat = strings.TrimSuffix(strings.TrimSuffix(pat, "..."), "/")
			if pat == "" {
				pat = "."
			}
		}
		abs, err := filepath.Abs(pat)
		if err != nil {
			return nil, err
		}
		if !recursive {
			add(abs)
			continue
		}
		inTestdata := strings.Contains(abs, string(filepath.Separator)+"testdata")
		err = filepath.WalkDir(abs, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				n := d.Name()
				if path != abs && (n == "vendor" || strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_") ||
					(n == "testdata" && !inTestdata)) {
					return filepath.SkipDir
				}
				return nil
			}
			if strings.HasSuffix(d.Name(), ".go") && !strings.HasSuffix(d.Name(), "_test.go") {
				add(filepath.Dir(path))
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return dirs, nil
}
