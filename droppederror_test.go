package hypatia

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestNoDroppedErrors enforces error discipline on every non-test file the
// default build compiles: a call whose error result is silently discarded —
// as an expression statement, in a go statement, or in a defer — fails the
// test at its file:line:col. Deliberate discards are written `_ = f()`, so
// the intent is visible in the code and in review. There is no suppression
// syntax.
//
// `go list` picks each package's files, so build constraints and
// _GOOS/_GOARCH file-name suffixes are read by the go command itself. Every
// package and every import is type-checked from source, and an error in
// either step fails the test, so no package goes unchecked while it passes.
func TestNoDroppedErrors(t *testing.T) {
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "source", nil)

	var stderr strings.Builder
	list := exec.Command("go", "list", "-f", "{{.ImportPath}}\t{{.Dir}}\t{{join .GoFiles \" \"}}", "./...")
	list.Stderr = &stderr
	out, err := list.Output()
	if err != nil {
		t.Fatalf("go list: %v\n%s", err, stderr.String())
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		path, rest, _ := strings.Cut(line, "\t")
		dir, names, _ := strings.Cut(rest, "\t")
		rel, err := filepath.Rel(wd, dir)
		if err != nil {
			t.Fatal(err)
		}
		var filenames []string
		for _, n := range strings.Fields(names) {
			filenames = append(filenames, filepath.Join(rel, n))
		}
		files, info := typeCheck(t, fset, imp, path, filenames)
		droppedErrors(info, files, func(call *ast.CallExpr, how string) {
			t.Errorf("%s: %s discards its error result; handle it or discard explicitly with _ =",
				fset.Position(call.Pos()), how)
		})
	}

	// The check itself: the fixture's "want droppederror" lines, and only
	// those, are reported.
	t.Run("fixture", func(t *testing.T) {
		const name = "testdata/droppederror/fixture.go"
		files, info := typeCheck(t, fset, imp, "droppederror", []string{name})
		var got []int
		droppedErrors(info, files, func(call *ast.CallExpr, _ string) {
			got = append(got, fset.Position(call.Pos()).Line)
		})
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		var want []int
		for i, l := range strings.Split(string(src), "\n") {
			if strings.HasSuffix(l, "// want droppederror") {
				want = append(want, i+1)
			}
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s: reported lines %v, want %v", name, got, want)
		}
	})
}

// typeCheck parses the named files and type-checks them as the package
// path, failing the test on the first parse or type error.
func typeCheck(t *testing.T, fset *token.FileSet, imp types.Importer, path string, filenames []string) ([]*ast.File, *types.Info) {
	t.Helper()
	var files []*ast.File
	for _, name := range filenames {
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{Importer: imp}
	if _, err := conf.Check(path, fset, files, info); err != nil {
		t.Fatalf("type-checking %s: %v", path, err)
	}
	return files, info
}

// droppedErrors calls report for every call in files whose error result is
// discarded by an expression statement, a go statement or a defer.
//
// A small, documented set of callees is excluded because they cannot fail
// in practice:
//   - fmt.Print/Printf/Println (process stdout),
//   - fmt.Fprint* when the writer is os.Stdout, os.Stderr, a
//     *bytes.Buffer, or a *strings.Builder,
//   - any method on bytes.Buffer or strings.Builder (documented to never
//     return a non-nil error).
func droppedErrors(info *types.Info, files []*ast.File, report func(call *ast.CallExpr, how string)) {
	flag := func(call *ast.CallExpr, how string) {
		t := info.TypeOf(call)
		if t == nil || !returnsError(t) || excludedCallee(info, call) {
			return
		}
		report(call, how)
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok {
					flag(call, "call")
				}
			case *ast.GoStmt:
				flag(n.Call, "go statement")
			case *ast.DeferStmt:
				flag(n.Call, "deferred call")
			}
			return true
		})
	}
}

// returnsError reports whether a call result type is or contains error.
func returnsError(t types.Type) bool {
	if tuple, ok := t.(*types.Tuple); ok {
		for i := 0; i < tuple.Len(); i++ {
			if isErrorType(tuple.At(i).Type()) {
				return true
			}
		}
		return false
	}
	return isErrorType(t)
}

var universeError = types.Universe.Lookup("error").Type()

func isErrorType(t types.Type) bool {
	return t != nil && types.Identical(t, universeError)
}

// excludedCallee reports whether the called function is on the documented
// cannot-fail exclusion list.
func excludedCallee(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	if sig.Recv() != nil {
		// Methods on the never-failing in-memory writers.
		return inMemoryWriter(sig.Recv().Type())
	}
	if fn.Pkg().Path() != "fmt" {
		return false
	}
	name := fn.Name()
	if name == "Print" || name == "Printf" || name == "Println" {
		return true
	}
	if strings.HasPrefix(name, "Fprint") && len(call.Args) > 0 {
		return infallibleWriter(info, call.Args[0])
	}
	return false
}

// infallibleWriter reports whether the expression is a writer that cannot
// return a write error in practice: os.Stdout, os.Stderr, *bytes.Buffer, or
// *strings.Builder.
func infallibleWriter(info *types.Info, w ast.Expr) bool {
	w = ast.Unparen(w)
	if u, ok := w.(*ast.UnaryExpr); ok { // &buf
		w = u.X
	}
	if sel, ok := w.(*ast.SelectorExpr); ok {
		if obj := info.Uses[sel.Sel]; obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "os" {
			if n := obj.Name(); n == "Stdout" || n == "Stderr" {
				return true
			}
		}
	}
	return inMemoryWriter(info.TypeOf(w))
}

// inMemoryWriter reports whether t is bytes.Buffer or strings.Builder, or a
// pointer to one.
func inMemoryWriter(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return false
	}
	switch n.Obj().Pkg().Path() + "." + n.Obj().Name() {
	case "bytes.Buffer", "strings.Builder":
		return true
	}
	return false
}
