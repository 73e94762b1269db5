package main

// The handlesafety check: flow-sensitive domain typing and arena-epoch
// staleness for the struct-of-arrays simulator core, over the annotations
// indexed in handles.go.
//
// Domain typing is a taint lattice in the unitsafety mold: every expression
// has an abstract handle value (a domain, or the set of enclosing-function
// parameters that taint it), propagated through assignments, arithmetic that
// provably preserves the handle (+/- a constant, conversions, slicing), and
// interprocedural summaries refined to fixpoint over the call graph. Every
// index expression whose base is an annotated array must then be PROVEN to
// carry the base's index domain: a known foreign domain is a cross-domain
// finding, and a value the lattice cannot type at all is a finding too —
// "cannot prove" is a failure here, unlike unitsafety's optimistic silence,
// because a wrong handle indexes real memory. Multiplication and modulo
// deliberately forget the domain, so flattened-index arithmetic
// (dev*qcap+head) must pass through an explicit trailing
// //hypatia:handle(D) coercion, which is both the proof obligation and the
// audit trail.
//
// Epoch staleness gives each tracked handle a stale bit: calling a
// //hypatia:epoch function (graph.Reset, CloneInto) or writing a
// //hypatia:epoch field (ring head advance) marks every live handle of the
// bumped domain stale; re-reading an annotated source re-acquires. The bit —
// not an unbounded counter — keeps the lattice finite, so bumps inside loops
// still reach a fixpoint. A handle used after an invalidation on ANY path
// through the CFG is reported with the full acquire → invalidate → use
// chain.
// Invalidation is interprocedural: a function that (transitively) calls an
// epoch-bumping function bumps at its own call sites too.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// handleVal is the abstract value of an expression: its handle domain (or
// array index/element domains for slice-typed values), whether an epoch
// bump has invalidated it since acquisition, the acquisition site, and the
// parameter-taint mask used for expectation inference. param marks values
// excused from the cannot-prove rule (unannotated parameters, including
// literal parameters). The stale bit — rather than an unbounded epoch
// counter — keeps the lattice finite, so bumps inside loops converge.
type handleVal struct {
	dom   string
	idx   string
	elem  string
	stale bool
	acq   token.Pos
	param bool
	mask  uint64
}

func (v handleVal) zero() bool {
	return v.dom == "" && v.idx == "" && v.elem == "" && !v.param && v.mask == 0
}

// sameDomains reports whether two values agree on all three domain slots.
func sameDomains(a, b handleVal) bool {
	return a.dom == b.dom && a.idx == b.idx && a.elem == b.elem
}

// invalSite is the most recent epoch bump of one domain on the current path.
type invalSite struct {
	pos  token.Pos
	what string
}

// handleFact is the per-program-point state: tracked variables and, for
// every domain bumped on some path through this point, the invalidation
// site (for path rendering).
type handleFact struct {
	vars  map[types.Object]handleVal
	inval map[string]invalSite
}

func newHandleFact() handleFact {
	return handleFact{vars: map[types.Object]handleVal{}, inval: map[string]invalSite{}}
}

var handleLattice = flowLattice[handleFact]{
	bottom: func() handleFact { return newHandleFact() },
	clone: func(f handleFact) handleFact {
		c := handleFact{
			vars:  make(map[types.Object]handleVal, len(f.vars)),
			inval: make(map[string]invalSite, len(f.inval)),
		}
		for k, v := range f.vars {
			c.vars[k] = v
		}
		for k, v := range f.inval {
			c.inval[k] = v
		}
		return c
	},
	join: func(dst, src handleFact) handleFact {
		for k, v := range src.vars {
			cur, ok := dst.vars[k]
			if !ok {
				dst.vars[k] = v
				continue
			}
			if !sameDomains(cur, v) {
				// Domain disagreement across paths: forget the domains but
				// keep the taint provenance.
				cur.dom, cur.idx, cur.elem = "", "", ""
			}
			if v.stale && !cur.stale {
				// May-staleness: a handle stale on one incoming path is stale
				// at the join; keep the stale side's acquisition.
				cur.stale, cur.acq = true, v.acq
			}
			cur.param = cur.param || v.param
			cur.mask |= v.mask
			dst.vars[k] = cur
		}
		for d, s := range src.inval {
			// May-invalidation: a bump on ANY path is visible at the join.
			// Position order breaks site ties deterministically.
			if cur, ok := dst.inval[d]; !ok || s.pos < cur.pos {
				dst.inval[d] = s
			}
		}
		return dst
	},
	equal: func(a, b handleFact) bool {
		if len(a.vars) != len(b.vars) || len(a.inval) != len(b.inval) {
			return false
		}
		for k, v := range a.vars {
			if b.vars[k] != v {
				return false
			}
		}
		for d, s := range a.inval {
			if b.inval[d] != s {
				return false
			}
		}
		return true
	},
}

// handleSummaries holds the interprocedural state: inferred parameter
// expectations and return domains (the shared tag summaries), plus the
// invalidation sets, refined to fixpoint over the call graph. Explicit
// //hypatia:handle annotations are immutable axioms: the methods below
// shadow the inferred ones so a proposal never overrides an annotation.
type handleSummaries struct {
	tagSummaries[string]
	hx          *handleIndex
	invalidates map[*types.Func]map[string]bool
}

func newHandleSummaries(hx *handleIndex) *handleSummaries {
	s := &handleSummaries{
		tagSummaries: newTagSummaries[string](),
		hx:           hx,
		invalidates:  map[*types.Func]map[string]bool{},
	}
	for fn, doms := range hx.epochFns {
		set := map[string]bool{}
		for _, d := range doms {
			set[d] = true
		}
		s.invalidates[fn] = set
	}
	return s
}

// explicitParam returns the annotated spec for fn's idx-th parameter.
func (s *handleSummaries) explicitParam(fn *types.Func, idx int) handleSpec {
	if specs := s.hx.params[fn]; idx < len(specs) {
		return specs[idx]
	}
	return handleSpec{}
}

func (s *handleSummaries) propose(fn *types.Func, idx int, dom string) {
	if s.explicitParam(fn, idx).zero() {
		s.tagSummaries.propose(fn, idx, dom)
	}
}

func (s *handleSummaries) proposeRet(fn *types.Func, dom string) {
	if s.hx.results[fn] == nil {
		s.tagSummaries.proposeRet(fn, dom)
	}
}

func (s *handleSummaries) proposeInval(fn *types.Func, doms map[string]bool) {
	if fn == nil || len(doms) == 0 {
		return
	}
	set := s.invalidates[fn]
	if set == nil {
		set = map[string]bool{}
		s.invalidates[fn] = set
	}
	for d := range doms {
		if !set[d] {
			set[d] = true
			s.changed = true
		}
	}
}

// expectation returns the scalar domain fn's idx-th parameter must carry:
// the explicit annotation if present, otherwise the inferred one.
func (s *handleSummaries) expectation(fn *types.Func, idx int) string {
	if spec := s.explicitParam(fn, idx); !spec.zero() {
		return spec.dom // array-spec parameters are not scalar sinks
	}
	return s.tagSummaries.expectation(fn, idx)
}

// retSpecs returns the handle specs of fn's result tuple: explicit
// annotations, or the single inferred return domain.
func (s *handleSummaries) retSpecs(fn *types.Func) []handleSpec {
	if specs := s.hx.results[fn]; specs != nil {
		return specs
	}
	if d := s.ret[fn]; d != "" {
		return []handleSpec{{dom: d}}
	}
	return nil
}

// checkHandleSafetyPkgs runs the handlesafety family: Phase A refines the
// summaries to fixpoint over every loaded package inside the handle scope,
// Phase B reports against them for the lint targets, then checks switch
// exhaustiveness over the annotated tag types.
func checkHandleSafetyPkgs(targets, all []*pkg, cfg config, hx *handleIndex, rep *reporter) {
	if hx.count == 0 {
		return
	}
	sums := newHandleSummaries(hx)
	analyze := func(p *pkg, fd *ast.FuncDecl, rep *reporter) { analyzeHandlesFunc(p, fd, hx, sums, rep) }
	for _, p := range runTagFamily(targets, all, cfg.handleScope, &sums.changed, rep, analyze) {
		checkExhaustivePkg(p, hx, rep)
	}
}

// analyzeHandlesFunc runs the handle dataflow over one declaration and the
// literals it contains. rep == nil means summary (inference) mode.
func analyzeHandlesFunc(p *pkg, fd *ast.FuncDecl, hx *handleIndex, sums *handleSummaries, rep *reporter) {
	fn, _ := p.info.Defs[fd.Name].(*types.Func)
	if fn == nil {
		return
	}
	hc := &handleChecker{p: p, hx: hx, sums: sums, fn: fn, params: map[*types.Var]int{}, paramObjs: map[types.Object]bool{}}
	if sig, ok := fn.Type().(*types.Signature); ok {
		for i := 0; i < sig.Params().Len(); i++ {
			hc.params[sig.Params().At(i)] = i
			hc.paramObjs[sig.Params().At(i)] = true
		}
		if sig.Recv() != nil {
			hc.paramObjs[sig.Recv()] = true
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			// Literal parameters are excused from the cannot-prove rule:
			// the literal's call sites are dynamic, so no expectation can
			// reach them.
			for _, fld := range lit.Type.Params.List {
				for _, name := range fld.Names {
					if obj := p.info.Defs[name]; obj != nil {
						hc.paramObjs[obj] = true
					}
				}
			}
		}
		return true
	})
	flowBodies(p, fd, handleLattice, rep, hc.transfer)
}

type handleChecker struct {
	p         *pkg
	hx        *handleIndex
	sums      *handleSummaries
	fn        *types.Func
	params    map[*types.Var]int    // declaration parameters -> mask index
	paramObjs map[types.Object]bool // every parameter object, literals included
}

// posOf renders a position for path messages.
func (hc *handleChecker) posOf(pos token.Pos) string {
	p := hc.p.fset.Position(pos)
	return fmt.Sprintf("%s:%d:%d", shortFile(p.Filename), p.Line, p.Column)
}

// acqText renders a value's acquisition site for findings.
func (hc *handleChecker) acqText(v handleVal) string {
	if !v.acq.IsValid() {
		return ""
	}
	return " (acquired at " + hc.posOf(v.acq) + ")"
}

// exprName renders an expression for findings, compactly.
func exprName(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprName(e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return exprName(e.X) + "[...]"
	case *ast.CallExpr:
		return exprName(e.Fun) + "()"
	case *ast.StarExpr:
		return exprName(e.X)
	}
	return "expression"
}

// coercible reports whether a coercion comment can take effect on this
// store target: a named (non-blank) identifier.
func coercible(lhs ast.Expr) bool {
	id, ok := ast.Unparen(lhs).(*ast.Ident)
	return ok && id.Name != "_"
}

// bump invalidates every tracked handle governed by a domain in doms,
// recording the site.
func (hc *handleChecker) bump(f handleFact, doms map[string]bool, pos token.Pos, what string) {
	for d := range doms {
		hc.bumpOne(f, d, pos, what)
	}
}

func (hc *handleChecker) bumpOne(f handleFact, dom string, pos token.Pos, what string) {
	f.inval[dom] = invalSite{pos: pos, what: what}
	for k, v := range f.vars {
		if !v.stale && hc.hx.staleDom(v.dom, v.idx, v.elem) == dom {
			v.stale = true
			f.vars[k] = v
		}
	}
}

// specVal materializes an annotated declaration's value, freshly acquired.
func (hc *handleChecker) specVal(f handleFact, spec handleSpec, acq token.Pos) handleVal {
	return handleVal{dom: spec.dom, idx: spec.idx, elem: spec.elem, acq: acq}
}

// checkStale reports v if an epoch bump of its governing domain invalidated
// it after acquisition, rendering the acquire → invalidate → use path.
func (hc *handleChecker) checkStale(f handleFact, v handleVal, at ast.Node, what string, emit func(ast.Node, string, string)) bool {
	d := hc.hx.staleDom(v.dom, v.idx, v.elem)
	if d == "" || !v.stale {
		return false
	}
	if emit != nil {
		site := f.inval[d]
		acq := "function entry"
		if v.acq.IsValid() {
			acq = hc.posOf(v.acq)
		}
		emit(at, checkHandleSafety, fmt.Sprintf(
			"stale %s handle: acquired at %s → invalidated by %s at %s → used here (%s); re-acquire after the invalidation",
			d, acq, site.what, hc.posOf(site.pos), what))
	}
	return true
}

// transfer advances the handle fact across one CFG node.
func (hc *handleChecker) transfer(f handleFact, n ast.Node, inDecl bool, emit func(ast.Node, string, string)) handleFact {
	switch n := n.(type) {
	case *ast.AssignStmt:
		co := hc.hx.coercionAt(hc.p.fset, n.Pos())
		if n.Tok == token.ASSIGN || n.Tok == token.DEFINE {
			var vals []handleVal
			for _, rhs := range n.Rhs {
				vals = append(vals, hc.eval(f, rhs, emit))
			}
			if len(n.Lhs) > 1 && len(n.Rhs) == 1 {
				// Multi-value call: distribute the callee's result specs.
				vals = hc.tupleVals(f, n.Rhs[0], len(n.Lhs))
			}
			for i, lhs := range n.Lhs {
				v := handleVal{}
				if i < len(vals) && (len(n.Lhs) == len(n.Rhs) || len(n.Rhs) == 1) {
					v = vals[i]
				}
				if co != nil && coercible(lhs) {
					v = handleVal{dom: co.dom, acq: lhs.Pos()}
					hc.hx.honored[co.pos] = true
				}
				hc.store(f, lhs, v, emit)
			}
		} else {
			for i, lhs := range n.Lhs {
				cur := hc.eval(f, lhs, nil)
				var rhs handleVal
				if i < len(n.Rhs) {
					rhs = hc.eval(f, n.Rhs[i], emit)
				}
				res := cur
				switch n.Tok {
				case token.ADD_ASSIGN, token.SUB_ASSIGN:
					// += const keeps the domain (handle arithmetic within an
					// arena); anything else forgets.
					if i >= len(n.Rhs) || !hc.isConst(n.Rhs[i]) {
						res = handleVal{mask: cur.mask | rhs.mask}
					}
				default:
					res = handleVal{mask: cur.mask | rhs.mask}
				}
				if co != nil && coercible(lhs) {
					res = handleVal{dom: co.dom, acq: lhs.Pos()}
					hc.hx.honored[co.pos] = true
				}
				hc.store(f, lhs, res, emit)
			}
		}
	case *ast.ReturnStmt:
		for _, r := range n.Results {
			v := hc.eval(f, r, emit)
			if inDecl && len(n.Results) == 1 {
				hc.sums.proposeRet(hc.fn, v.dom)
			}
		}
	case *ast.RangeStmt:
		v := hc.eval(f, n.X, emit)
		hc.checkStale(f, v, n.X, "ranged over "+exprName(n.X), emit)
		co := hc.hx.coercionAt(hc.p.fset, n.Pos())
		if n.Key != nil {
			kv := handleVal{}
			if v.idx != "" {
				kv = hc.specVal(f, handleSpec{dom: v.idx}, n.Key.Pos())
			}
			if co != nil && coercible(n.Key) {
				kv = handleVal{dom: co.dom, acq: n.Key.Pos()}
				hc.hx.honored[co.pos] = true
			}
			hc.store(f, n.Key, kv, nil)
		}
		if n.Value != nil {
			vv := handleVal{}
			if v.elem != "" {
				vv = hc.specVal(f, handleSpec{dom: v.elem}, n.Value.Pos())
			}
			hc.store(f, n.Value, vv, nil)
		}
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			co := hc.hx.coercionAt(hc.p.fset, n.Pos())
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					v := handleVal{}
					if i < len(vs.Values) {
						v = hc.eval(f, vs.Values[i], emit)
					}
					if co != nil {
						v = handleVal{dom: co.dom, acq: name.Pos()}
						hc.hx.honored[co.pos] = true
					}
					hc.store(f, name, v, emit)
				}
			}
		}
	case *ast.IncDecStmt:
		hc.eval(f, n.X, emit)
		// x++ keeps x's domain; a ++ on an epoch field is an invalidation.
		if sel, ok := ast.Unparen(n.X).(*ast.SelectorExpr); ok {
			if field, ok := hc.p.info.Uses[sel.Sel].(*types.Var); ok {
				if dom, ok := hc.hx.epochFields[field]; ok {
					hc.bumpOne(f, dom, n.Pos(), "write to field "+field.Name())
					hc.sums.proposeInval(hc.fn, map[string]bool{dom: true})
				}
			}
		}
	case *ast.SendStmt:
		hc.eval(f, n.Chan, emit)
		hc.eval(f, n.Value, emit)
	case *ast.ExprStmt:
		hc.eval(f, n.X, emit)
	case *ast.GoStmt:
		hc.eval(f, n.Call, emit)
	case *ast.DeferStmt:
		hc.eval(f, n.Call, emit)
	case ast.Expr:
		hc.eval(f, n, emit)
	case *ast.LabeledStmt, *ast.BranchStmt, *ast.EmptyStmt:
		// no expressions
	default:
		shallowInspect(n, func(m ast.Node) bool {
			if call, ok := m.(*ast.CallExpr); ok {
				hc.eval(f, call, emit)
				return false
			}
			return true
		})
	}
	return f
}

// tupleVals distributes a multi-value call's results across the assignment.
func (hc *handleChecker) tupleVals(f handleFact, rhs ast.Expr, n int) []handleVal {
	vals := make([]handleVal, n)
	call, ok := ast.Unparen(rhs).(*ast.CallExpr)
	if !ok {
		return vals
	}
	fn := resolveCallee(hc.p.info, call)
	if fn == nil {
		return vals
	}
	specs := hc.sums.retSpecs(fn)
	for i := 0; i < n && i < len(specs); i++ {
		if !specs[i].zero() {
			vals[i] = hc.specVal(f, specs[i], call.Pos())
		}
	}
	return vals
}

// handleTrackable reports whether stores to obj are worth tracking: integer-kind
// scalars and arrays can carry handles.
func handleTrackable(t types.Type) bool {
	if t == nil {
		return false
	}
	if b, ok := t.Underlying().(*types.Basic); ok {
		return b.Info()&types.IsInteger != 0
	}
	return isArrayType(t)
}

// store writes a value into an assignable expression: identifiers update
// the fact; stores through annotated fields and arrays are checked as
// sinks, and writes to epoch fields advance their domain.
func (hc *handleChecker) store(f handleFact, lhs ast.Expr, v handleVal, emit func(ast.Node, string, string)) {
	switch lhs := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if lhs.Name == "_" {
			return
		}
		obj := hc.p.info.Defs[lhs]
		if obj == nil {
			obj = hc.p.info.Uses[lhs]
		}
		if obj == nil || !handleTrackable(obj.Type()) {
			return
		}
		f.vars[obj] = v
	case *ast.SelectorExpr:
		hc.eval(f, lhs.X, emit)
		field, ok := hc.p.info.Uses[lhs.Sel].(*types.Var)
		if !ok || !field.IsField() {
			return
		}
		if spec, ok := hc.hx.fields[field]; ok {
			want := spec.dom
			if spec.elem != "" && isArrayType(hc.p.info.TypeOf(lhs)) {
				// Assigning a whole slice: element domains must agree.
				want = ""
				if v.elem != "" && v.elem != spec.elem && emit != nil {
					emit(lhs, checkHandleSafety, fmt.Sprintf(
						"store into %s replaces %s elements with %s elements%s",
						field.Name(), spec.elem, v.elem, hc.acqText(v)))
				}
			}
			if want != "" {
				if v.dom != "" && v.dom != want {
					if emit != nil {
						emit(lhs, checkHandleSafety, fmt.Sprintf(
							"store into field %s (a %s handle) of a %s handle%s",
							field.Name(), want, v.dom, hc.acqText(v)))
					}
				} else if v.dom == "" {
					inferMask(hc.sums, hc.fn, v.mask, want)
				}
			}
		}
		if dom, ok := hc.hx.epochFields[field]; ok {
			hc.bumpOne(f, dom, lhs.Pos(), "write to field "+field.Name())
			hc.sums.proposeInval(hc.fn, map[string]bool{dom: true})
		}
	case *ast.IndexExpr:
		base := hc.eval(f, lhs.X, emit)
		hc.checkIndex(f, lhs, base, emit)
		if base.elem != "" {
			if v.dom != "" && v.dom != base.elem {
				if emit != nil {
					emit(lhs, checkHandleSafety, fmt.Sprintf(
						"store into %s (elements are %s handles) of a %s handle%s",
						exprName(lhs.X), base.elem, v.dom, hc.acqText(v)))
				}
			} else if v.dom == "" {
				inferMask(hc.sums, hc.fn, v.mask, base.elem)
			}
		}
	case *ast.StarExpr:
		hc.eval(f, lhs.X, emit)
	}
}

// eval computes the abstract handle value of an expression, reporting
// index-domain and staleness violations along the way when emit is non-nil.
func (hc *handleChecker) eval(f handleFact, e ast.Expr, emit func(ast.Node, string, string)) handleVal {
	switch e := e.(type) {
	case *ast.ParenExpr:
		return hc.eval(f, e.X, emit)
	case *ast.Ident:
		obj := hc.p.info.Uses[e]
		if obj == nil {
			obj = hc.p.info.Defs[e]
		}
		v, ok := obj.(*types.Var)
		if !ok || !handleTrackable(v.Type()) {
			return handleVal{}
		}
		if val, tracked := f.vars[obj]; tracked {
			return val
		}
		idx, isParam := hc.params[v]
		if isParam {
			if spec := hc.sums.explicitParam(hc.fn, idx); !spec.zero() {
				val := hc.specVal(f, spec, v.Pos())
				if d := hc.hx.staleDom(val.dom, val.idx, val.elem); d != "" {
					if _, bumped := f.inval[d]; bumped {
						// The parameter was acquired at entry, so any bump on
						// the path to this use invalidates it.
						val.stale = true
					}
				}
				val.param = true
				// No inference mask: the expectation is an axiom, so a value
				// derived from this parameter by domain-erasing arithmetic
				// must be re-proven, not silently excused.
				return val
			}
			val := handleVal{param: true}
			if idx < 64 {
				val.mask = 1 << idx
			}
			return val
		}
		if hc.paramObjs[obj] {
			return handleVal{param: true}
		}
		return handleVal{}
	case *ast.SelectorExpr:
		hc.eval(f, e.X, emit)
		if field, ok := hc.p.info.Uses[e.Sel].(*types.Var); ok && field.IsField() {
			if spec, ok := hc.hx.fields[field]; ok {
				return hc.specVal(f, spec, e.Pos())
			}
		}
		return handleVal{}
	case *ast.CallExpr:
		return hc.evalCall(f, e, emit)
	case *ast.BinaryExpr:
		l := hc.eval(f, e.X, emit)
		r := hc.eval(f, e.Y, emit)
		switch e.Op {
		case token.ADD, token.SUB:
			// handle ± constant stays in the domain (islIdx[node+1]); any
			// other arithmetic must re-prove itself through a coercion.
			if hc.isConst(e.Y) {
				return l
			}
			if hc.isConst(e.X) && e.Op == token.ADD {
				return r
			}
			return handleVal{mask: l.mask | r.mask}
		default:
			return handleVal{mask: l.mask | r.mask}
		}
	case *ast.UnaryExpr:
		v := hc.eval(f, e.X, emit)
		if e.Op == token.ADD || e.Op == token.SUB {
			return v
		}
		return handleVal{}
	case *ast.IndexExpr:
		base := hc.eval(f, e.X, emit)
		return hc.checkIndex(f, e, base, emit)
	case *ast.SliceExpr:
		v := hc.eval(f, e.X, emit)
		for _, ix := range []ast.Expr{e.Low, e.High, e.Max} {
			if ix != nil {
				hc.eval(f, ix, emit)
			}
		}
		// Slicing rebases the index, so the index domain is gone; elements
		// and their staleness carry over.
		return handleVal{elem: v.elem, stale: v.stale, acq: v.acq}
	case *ast.CompositeLit:
		for _, elt := range e.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				hc.eval(f, kv.Value, emit)
			} else {
				hc.eval(f, elt, emit)
			}
		}
		return handleVal{}
	case *ast.StarExpr:
		hc.eval(f, e.X, emit)
		return handleVal{}
	case *ast.TypeAssertExpr:
		hc.eval(f, e.X, emit)
		return handleVal{}
	case *ast.FuncLit:
		return handleVal{} // analyzed as its own CFG
	}
	return handleVal{}
}

// checkIndex validates one index expression against its base's annotation:
// the base must be fresh, and when the base declares an index domain the
// index must provably carry it — a constant, a matching fresh handle, or a
// parameter still awaiting inference. Everything else is a finding.
func (hc *handleChecker) checkIndex(f handleFact, e *ast.IndexExpr, base handleVal, emit func(ast.Node, string, string)) handleVal {
	iv := hc.eval(f, e.Index, emit)
	if !isArrayType(hc.p.info.TypeOf(e.X)) {
		return handleVal{}
	}
	if base.zero() {
		return handleVal{} // unannotated base: nothing to prove
	}
	what := exprName(e.X)
	hc.checkStale(f, base, e, "indexed "+what, emit)
	if base.idx != "" && !hc.isConst(e.Index) {
		switch {
		case iv.dom == base.idx:
			hc.checkStale(f, iv, e.Index, "indexed "+what+" with it", emit)
		case iv.dom != "":
			if emit != nil {
				emit(e.Index, checkHandleSafety, fmt.Sprintf(
					"index into %s (%s-indexed) uses a %s handle%s",
					what, base.idx, iv.dom, hc.acqText(iv)))
			}
		case iv.mask != 0:
			inferMask(hc.sums, hc.fn, iv.mask, base.idx)
		case iv.param:
			// A literal's parameter: call sites are dynamic, excused.
		default:
			if emit != nil {
				emit(e.Index, checkHandleSafety, fmt.Sprintf(
					"cannot prove the index into %s (%s-indexed) is a %s handle; annotate the value's source or add a trailing //hypatia:handle(%s) coercion on its defining statement",
					what, base.idx, base.idx, base.idx))
			}
		}
	}
	if base.elem != "" {
		if isArrayType(hc.p.info.TypeOf(e)) {
			// Nested arrays ([][]int32): the element domain names the scalar
			// leaves, so the inner slice keeps it as an element domain.
			return hc.specVal(f, handleSpec{elem: base.elem}, e.Pos())
		}
		return hc.specVal(f, handleSpec{dom: base.elem}, e.Pos())
	}
	return handleVal{}
}

// evalCall handles conversions, argument expectations, epoch bumps, and
// summarized return domains.
func (hc *handleChecker) evalCall(f handleFact, call *ast.CallExpr, emit func(ast.Node, string, string)) handleVal {
	// Type conversions (int32(x) and friends) keep the operand's handle.
	if tv, ok := hc.p.info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		return hc.eval(f, call.Args[0], emit)
	}
	if fun, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && hc.p.info.Uses[fun] != nil {
		if _, isBuiltin := hc.p.info.Uses[fun].(*types.Builtin); isBuiltin {
			for _, a := range call.Args {
				hc.eval(f, a, emit)
			}
			return handleVal{}
		}
	}
	fn := resolveCallee(hc.p.info, call)
	if fn == nil {
		for _, a := range call.Args {
			hc.eval(f, a, emit)
		}
		return handleVal{}
	}
	for i, a := range call.Args {
		v := hc.eval(f, a, emit)
		want := hc.sums.expectation(fn, i)
		if want == "" {
			continue
		}
		switch {
		case v.dom == want:
			hc.checkStale(f, v, a, fmt.Sprintf("passed to %s", fnDisplay(fn)), emit)
		case v.dom != "":
			if emit != nil {
				emit(a, checkHandleSafety, fmt.Sprintf(
					"argument %d of %s expects a %s handle, got a %s handle%s",
					i, fnDisplay(fn), want, v.dom, hc.acqText(v)))
			}
		default:
			inferMask(hc.sums, hc.fn, v.mask, want)
		}
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		hc.eval(f, sel.X, nil) // receiver sub-expressions, once, silently
	}
	if inv := hc.sums.invalidates[fn]; len(inv) > 0 {
		hc.bump(f, inv, call.Pos(), "call to "+fnDisplay(fn))
		hc.sums.proposeInval(hc.fn, inv)
	}
	if specs := hc.sums.retSpecs(fn); len(specs) == 1 && !specs[0].zero() {
		return hc.specVal(f, specs[0], call.Pos())
	}
	return handleVal{}
}

// isConst reports whether e is a compile-time constant index.
func (hc *handleChecker) isConst(e ast.Expr) bool {
	tv, ok := hc.p.info.Types[ast.Unparen(e)]
	return ok && tv.Value != nil
}
