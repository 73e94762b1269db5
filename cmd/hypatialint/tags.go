package main

// The tag-summary engine behind the unitsafety and handlesafety checks. Both
// type values with a tag from a flat lattice — a physical unit, a handle
// domain; the zero T means "unknown" — through a per-function forward
// dataflow, and both refine the same interprocedural summaries: the tag each
// parameter is expected to carry (inferred from the sinks a parameter-tainted
// value reaches) and the tag a function returns. Two proposals that disagree
// collapse to "unknown" for good, so the refinement is monotone and the
// phase-A fixpoint below terminates.

import (
	"go/ast"
	"go/types"
)

// tagSummaries holds the interprocedural state of one tag family.
type tagSummaries[T comparable] struct {
	expect     map[*types.Func][]T
	expectConf map[*types.Func]uint64 // params with conflicting expectations
	ret        map[*types.Func]T
	retConf    map[*types.Func]bool
	changed    bool
}

func newTagSummaries[T comparable]() tagSummaries[T] {
	return tagSummaries[T]{
		expect:     map[*types.Func][]T{},
		expectConf: map[*types.Func]uint64{},
		ret:        map[*types.Func]T{},
		retConf:    map[*types.Func]bool{},
	}
}

func (s *tagSummaries[T]) propose(fn *types.Func, idx int, t T) {
	var none T
	if fn == nil || t == none || idx >= 64 {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || idx >= sig.Params().Len() {
		return
	}
	if s.expect[fn] == nil {
		s.expect[fn] = make([]T, sig.Params().Len())
	}
	if s.expectConf[fn]&(1<<idx) != 0 {
		return
	}
	switch cur := s.expect[fn][idx]; {
	case cur == none:
		s.expect[fn][idx] = t
		s.changed = true
	case cur != t:
		s.expect[fn][idx] = none
		s.expectConf[fn] |= 1 << idx
		s.changed = true
	}
}

func (s *tagSummaries[T]) proposeRet(fn *types.Func, t T) {
	var none T
	if fn == nil || t == none || s.retConf[fn] {
		return
	}
	switch cur := s.ret[fn]; {
	case cur == none:
		s.ret[fn] = t
		s.changed = true
	case cur != t:
		s.ret[fn] = none
		s.retConf[fn] = true
		s.changed = true
	}
}

// expectation returns the inferred tag for fn's idx-th parameter.
func (s *tagSummaries[T]) expectation(fn *types.Func, idx int) T {
	if e := s.expect[fn]; idx < len(e) {
		return e[idx]
	}
	var none T
	return none
}

// inferMask proposes tag t for every parameter of fn whose bit is set in
// mask: a value tainted by those parameters reached a sink expecting t.
func inferMask[T any](s interface{ propose(*types.Func, int, T) }, fn *types.Func, mask uint64, t T) {
	for idx := 0; mask != 0; idx++ {
		if mask&1 != 0 {
			s.propose(fn, idx, t)
		}
		mask >>= 1
	}
}

// runTagFamily drives one tag family over the packages inside scope. Phase A
// runs analyze in summary mode (rep == nil) over every loaded in-scope
// package — so linting one package still sees its in-scope dependencies'
// summaries — until a round leaves *changed false; phase B runs it once in
// report mode over the in-scope lint targets, which it returns.
func runTagFamily(targets, all []*pkg, scope []string, changed *bool, rep *reporter, analyze func(p *pkg, fd *ast.FuncDecl, rep *reporter)) []*pkg {
	var scopeAll, scopeTargets []*pkg
	seen := map[*pkg]bool{}
	for _, p := range all {
		if inSimScope(p.path, scope) && !seen[p] {
			seen[p] = true
			scopeAll = append(scopeAll, p)
		}
	}
	for _, p := range targets {
		if inSimScope(p.path, scope) {
			scopeTargets = append(scopeTargets, p)
			if !seen[p] {
				seen[p] = true
				scopeAll = append(scopeAll, p)
			}
		}
	}
	if len(scopeTargets) == 0 {
		return nil
	}
	for iter := 0; iter < 10; iter++ {
		*changed = false
		for _, p := range scopeAll {
			forEachFuncDecl(p, func(fd *ast.FuncDecl) { analyze(p, fd, nil) })
		}
		if !*changed {
			break
		}
	}
	for _, p := range scopeTargets {
		forEachFuncDecl(p, func(fd *ast.FuncDecl) { analyze(p, fd, rep) })
	}
	return scopeTargets
}

// forEachFuncDecl visits the package's function declarations (literals are
// analyzed as part of their enclosing function here: a literal's body is in
// its own CFG, so it is visited separately with no parameter mask).
func forEachFuncDecl(p *pkg, fn func(fd *ast.FuncDecl)) {
	for _, f := range p.files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				fn(fd)
			}
		}
	}
}

// flowBodies runs one family's dataflow over a declaration and the literals
// it contains, one CFG per body. transfer's inDecl is false inside function
// literals, whose returns do not feed the declaration's return summary.
// rep == nil means summary (inference) mode: the replay still runs, because
// it is what proposes against the converged facts, but nothing is reported.
func flowBodies[F any](p *pkg, fd *ast.FuncDecl, lat flowLattice[F], rep *reporter,
	transfer func(f F, n ast.Node, inDecl bool, emit func(ast.Node, string, string)) F) {
	bodies := []*ast.BlockStmt{fd.Body}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			bodies = append(bodies, lit.Body)
		}
		return true
	})
	var emit func(ast.Node, string, string)
	if rep != nil {
		emit = func(n ast.Node, check, msg string) { rep.add(n.Pos(), check, msg) }
	}
	for _, body := range bodies {
		g := buildCFG(body, p.info)
		if g.unstructured {
			continue
		}
		inDecl := body == fd.Body
		xfer := func(f F, n ast.Node, emit func(ast.Node, string, string)) F {
			return transfer(f, n, inDecl, emit)
		}
		in := forwardDataflow(g, lat, lat.bottom(), xfer)
		replayDataflow(g, lat, in, xfer, emit)
	}
}
