package main

import (
	"go/ast"
	"go/types"
	"strings"
)

// checkDroppedErrorPkg enforces error discipline: a call whose error result
// is silently discarded — as an expression statement, in a go statement, or
// in a defer — is flagged. Deliberate discards must be written as `_ = f()`
// so the intent is visible in the code and in review.
//
// A small, documented set of callees is excluded because they cannot fail
// in practice:
//   - fmt.Print/Printf/Println (process stdout),
//   - fmt.Fprint* when the writer is os.Stdout, os.Stderr, a
//     *bytes.Buffer, or a *strings.Builder,
//   - any method on bytes.Buffer or strings.Builder (documented to never
//     return a non-nil error).
func checkDroppedErrorPkg(p *pkg, rep *reporter) {
	flag := func(call *ast.CallExpr, how string) {
		t := p.info.TypeOf(call)
		if t == nil || !returnsError(t) || excludedCallee(p.info, call) {
			return
		}
		rep.add(call.Pos(), checkDroppedError,
			how+" discards its error result; handle it or discard explicitly with _ =")
	}
	for _, f := range p.files {
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
		path, name, ok := namedType(sig.Recv().Type())
		return ok && ((path == "bytes" && name == "Buffer") ||
			(path == "strings" && name == "Builder"))
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
	path, name, ok := namedType(info.TypeOf(w))
	return ok && ((path == "bytes" && name == "Buffer") ||
		(path == "strings" && name == "Builder"))
}

// namedType returns the named type and its qualified (pkgpath, name) if t
// is (a pointer to) a defined type.
func namedType(t types.Type) (pkgPath, name string, ok bool) {
	if ptr, isPtr := t.(*types.Pointer); isPtr {
		t = ptr.Elem()
	}
	n, isNamed := t.(*types.Named)
	if !isNamed {
		return "", "", false
	}
	obj := n.Obj()
	if obj == nil {
		return "", "", false
	}
	path := ""
	if obj.Pkg() != nil {
		path = obj.Pkg().Path()
	}
	return path, obj.Name(), true
}
