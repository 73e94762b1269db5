package main

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
	"testing"
)

// buildRepoCallGraph loads the given module-relative packages (pulling their
// dependencies through the loader) and builds the call graph over
// everything loaded.
func buildRepoCallGraph(t *testing.T, paths ...string) *callGraph {
	t.Helper()
	l, err := newLoader(".")
	if err != nil {
		t.Fatalf("newLoader: %v", err)
	}
	for _, path := range paths {
		if _, err := l.load(l.module + path); err != nil {
			t.Fatalf("load %s: %v", path, err)
		}
	}
	var all []*pkg
	for _, p := range l.cache {
		all = append(all, p)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].path < all[j].path })
	return buildCallGraph(all)
}

// findFn locates a declared function/method by package-path suffix and name.
func findFn(t *testing.T, cg *callGraph, pathSuffix, name string) *types.Func {
	t.Helper()
	for fn := range cg.declOf {
		if fn.Name() == name && fn.Pkg() != nil && strings.HasSuffix(fn.Pkg().Path(), pathSuffix) {
			return fn
		}
	}
	t.Fatalf("function %s.%s not found in call graph", pathSuffix, name)
	return nil
}

func hasEdge(cg *callGraph, from, to cgKey, viaGo bool) bool {
	for _, e := range cg.edges[from] {
		if e.callee == to && e.viaGo == viaGo {
			return true
		}
	}
	return false
}

// TestCallGraphCrossPackage pins the resolution the interprocedural checks
// depend on: the pipeline's launch edge is marked viaGo, the
// producer's engine call resolves across the package boundary into
// internal/routing, and so does the default strategy's call into the
// from-scratch sweep and the sweep's pool acquisition.
func TestCallGraphCrossPackage(t *testing.T) {
	cg := buildRepoCallGraph(t, "/internal/core")
	newPipeline := findFn(t, cg, "internal/core", "newPipeline")
	producer := findFn(t, cg, "internal/core", "producer")
	advance := findFn(t, cg, "internal/routing", "Advance")
	shortest := findFn(t, cg, "internal/core", "ShortestPath")
	sweep := findFn(t, cg, "internal/routing", "ForwardingTableFor")
	empty := findFn(t, cg, "internal/routing", "Empty")

	if !hasEdge(cg, newPipeline, producer, true) {
		t.Error("newPipeline -> producer launch edge missing or not marked viaGo")
	}
	if hasEdge(cg, newPipeline, producer, false) {
		t.Error("producer must not appear as a plain callee of newPipeline")
	}
	if !hasEdge(cg, producer, advance, false) {
		t.Error("producer -> IncrementalEngine.Advance cross-package edge missing")
	}
	if !hasEdge(cg, shortest, sweep, false) {
		t.Error("ShortestPath -> Snapshot.ForwardingTableFor cross-package edge missing")
	}
	if !hasEdge(cg, sweep, empty, false) {
		t.Error("ForwardingTableFor -> TablePool.Empty call edge missing")
	}
}

// TestCallGraphFuncLitGo verifies that a go-launched function literal gets a
// viaGo edge from its enclosing function. The specimen is the purity
// fixture's clean worker launch: the simulator's two `go` statements launch
// named functions, so no non-test source has such a literal.
func TestCallGraphFuncLitGo(t *testing.T) {
	const fixture = "/cmd/hypatialint/testdata/src/purity/core"
	cg := buildRepoCallGraph(t, fixture)
	launch := findFn(t, cg, fixture, "startWorker")
	found := false
	for _, e := range cg.edges[launch] {
		if _, isLit := e.callee.(*ast.FuncLit); isLit && e.viaGo {
			found = true
		}
	}
	if !found {
		t.Error("startWorker must launch a function literal with a viaGo edge")
	}
}
