package main

// Module-local call graph over every loaded package (lint targets plus the
// dependencies the loader pulled in). Nodes are declared functions/methods
// (*types.Func) and function literals (*ast.FuncLit); edges are statically
// resolved calls, with go-statement launches marked separately: a launched
// body runs on its own frame, so the contract engines do not fold it into
// its launcher the way they fold a plainly called literal.
//
// Dynamic calls (through function values, interface methods, or unresolved
// selectors) produce no edge; the affected checks treat their absence
// conservatively where it matters and document the gap otherwise.

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// cgKey identifies a call-graph node: *types.Func or *ast.FuncLit.
type cgKey any

type cgEdge struct {
	callee cgKey
	viaGo  bool // edge created by a go statement
}

type callGraph struct {
	edges  map[cgKey][]cgEdge
	body   map[cgKey]*ast.BlockStmt
	pkgOf  map[cgKey]*pkg
	declOf map[*types.Func]*ast.FuncDecl
	// funcsIn lists the nodes declared in each package, in file order
	// (declarations first, literals in encounter order).
	funcsIn map[*pkg][]cgKey
}

// buildCallGraph constructs the graph over the given packages.
func buildCallGraph(pkgs []*pkg) *callGraph {
	cg := &callGraph{
		edges:   map[cgKey][]cgEdge{},
		body:    map[cgKey]*ast.BlockStmt{},
		pkgOf:   map[cgKey]*pkg{},
		declOf:  map[*types.Func]*ast.FuncDecl{},
		funcsIn: map[*pkg][]cgKey{},
	}
	for _, p := range pkgs {
		for _, f := range p.files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := p.info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				cg.body[fn] = fd.Body
				cg.pkgOf[fn] = p
				cg.declOf[fn] = fd
				cg.funcsIn[p] = append(cg.funcsIn[p], fn)
			}
		}
	}
	// Scan bodies after registration so intra-module edges resolve to
	// registered nodes regardless of declaration order.
	for _, p := range pkgs {
		for _, key := range append([]cgKey(nil), cg.funcsIn[p]...) {
			if fn, ok := key.(*types.Func); ok {
				cg.scanBody(p, key, cg.declOf[fn].Body)
			}
		}
	}
	return cg
}

// scanBody records the outgoing edges of one function and registers (and
// recursively scans) the literals it contains.
func (cg *callGraph) scanBody(p *pkg, cur cgKey, body *ast.BlockStmt) {
	goLits := map[*ast.FuncLit]bool{}
	goCalls := map[*ast.CallExpr]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			cg.body[n] = n.Body
			cg.pkgOf[n] = p
			cg.funcsIn[p] = append(cg.funcsIn[p], n)
			cg.addEdge(cur, n, goLits[n])
			cg.scanBody(p, n, n.Body)
			return false
		case *ast.GoStmt:
			goCalls[n.Call] = true
			if lit, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok {
				goLits[lit] = true
			} else if callee := resolveCallee(p.info, n.Call); callee != nil {
				cg.addEdge(cur, callee, true)
			}
		case *ast.CallExpr:
			if goCalls[n] {
				return true
			}
			if callee := resolveCallee(p.info, n); callee != nil {
				cg.addEdge(cur, callee, false)
			}
		}
		return true
	})
}

func (cg *callGraph) addEdge(from cgKey, to cgKey, viaGo bool) {
	cg.edges[from] = append(cg.edges[from], cgEdge{callee: to, viaGo: viaGo})
}

// resolveCallee statically resolves a call's target function, or nil for
// dynamic calls, conversions, and builtins.
func resolveCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// fnDisplay renders a function as Name, or Recv.Name for a method.
func fnDisplay(fn *types.Func) string {
	name := fn.Name()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if _, rn, ok := namedType(sig.Recv().Type()); ok {
			return rn + "." + name
		}
	}
	return name
}

// nodeName renders a call-graph node for witnesses and findings.
func (cg *callGraph) nodeName(k cgKey) string {
	switch k := k.(type) {
	case *types.Func:
		name := fnDisplay(k)
		if k.Pkg() != nil {
			path := k.Pkg().Path()
			if i := strings.LastIndex(path, "/"); i >= 0 {
				path = path[i+1:]
			}
			name = path + "." + name
		}
		return name
	case *ast.FuncLit:
		pos := cg.pkgOf[k].fset.Position(k.Pos())
		return fmt.Sprintf("func literal at %s:%d", shortFile(pos.Filename), pos.Line)
	}
	return "?"
}
