package main

// Interprocedural allocation-effect analysis: the engine behind the
// allocsafety check.
//
// Every call-graph node gets an allocation class from a three-point
// lattice, computed bottom-up over the strongly connected components of
// the module-local call graph by the contract engine in contract.go — the
// same engine the effect analysis in effects.go runs on, whose taint
// machinery this scan also reuses:
//
//	allocNone       provably allocation-free in steady state
//	allocAmortized  allocates only to grow caller-owned storage: append
//	                into a parameter/receiver-derived slice, or any
//	                intrinsic allocation or summarized module-local call
//	                under a capacity guard (`if cap(x) < n` / `x == nil`
//	                — the arena-grow and sync.Pool-miss idioms)
//	allocAlways     allocates on the steady-state path
//
// Allocation sources are syntactic: make/new, slice and map composite
// literals, address-taken composite literals, append (classified by the
// provenance of its base — the effect analysis' taint lattice tells
// caller-owned arenas from fresh slices), closure values that escape
// their defining frame, interface boxing of concrete non-pointer values
// (at call arguments, assignments, and returns), string concatenation and
// string<->[]byte conversions, map writes, go statements, and calls the
// analysis cannot see (dynamic calls, bodyless interface methods,
// standard-library functions without an entry in the summary table).
//
// Two deliberate, visible escape hatches mirror the purity check's:
// a named function type annotated //hypatia:noalloc blesses dynamic calls
// through its values, and a `//hypatia:allocs(amortized) <why>` comment
// on (or immediately above) an allocation site downgrades that site to
// allocAmortized — for growth the guard heuristic cannot see. The
// directive covers every allocation charged at its line: intrinsic sites,
// dynamic-call charges (monitoring hooks, user closures), and the
// inherited steady-state allocations of a summarized module-local callee
// (one-time setup calls in otherwise steady-state loops).
//
// Branches dead under the default build configuration are skipped: an
// `if check.Enabled { ... }` body (check.Enabled is a build-tag constant,
// false without -tags hypatia_checks) may allocate freely without
// disqualifying the enclosing function, because the production binary
// never executes it. So are branches that unconditionally end in panic:
// a failure path crashes the program, so the fmt.Sprintf feeding the
// panic message is not a steady-state allocation.

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// allocClass is the three-point allocation lattice, ordered by severity.
type allocClass uint8

const (
	allocNone      allocClass = iota
	allocAmortized            // grows caller-owned storage; free in steady state
	allocAlways               // allocates on the steady-state path
)

// allocSummary is the computed allocation summary of one call-graph node:
// one witness per non-bottom class the node reaches.
type allocSummary = summary[allocClass]

// amortizedDirective waives one allocation site.
const amortizedDirective = "//hypatia:allocs(amortized)"

// allocAnalysis is the module-wide result: the //hypatia:noalloc contract
// (directive index plus a summary per node) and the site waivers.
type allocAnalysis struct {
	*contract[allocClass]
	// amortizedAt maps filename -> line -> the //hypatia:allocs(amortized)
	// directive covering that line (the directive's own line and the next).
	// A waiver that downgrades a site is marked in the contract's honored
	// set, so checkDirectiveComments can flag dead ones.
	amortizedAt map[string]map[int]*ast.Comment
}

// analyzeAllocs computes allocation summaries for every node of the call
// graph.
func analyzeAllocs(all []*pkg, cg *callGraph, module string) *allocAnalysis {
	ax := &allocAnalysis{
		contract: newContract(cg, module, checkAllocSafety, "//hypatia:noalloc",
			[]allocClass{allocAmortized, allocAlways},
			func(c allocClass) bool { return c == allocAlways }),
		amortizedAt: map[string]map[int]*ast.Comment{},
	}
	ax.scan = ax.scanNode
	for _, p := range all {
		ax.collectWaivers(p)
	}
	ax.solve(all)
	return ax
}

// collectWaivers indexes //hypatia:allocs(amortized) site comments by the
// lines they cover.
func (ax *allocAnalysis) collectWaivers(p *pkg) {
	for _, f := range p.files {
		for _, cgrp := range f.Comments {
			for _, c := range cgrp.List {
				if c.Text != amortizedDirective && !strings.HasPrefix(c.Text, amortizedDirective+" ") {
					continue
				}
				pos := p.fset.Position(c.Pos())
				lines := ax.amortizedAt[pos.Filename]
				if lines == nil {
					lines = map[int]*ast.Comment{}
					ax.amortizedAt[pos.Filename] = lines
				}
				for _, line := range []int{pos.Line, pos.Line + 1} {
					if _, taken := lines[line]; !taken {
						lines[line] = c
					}
				}
			}
		}
	}
}

// scanNode computes one node's allocation summary from its body, composing
// callee summaries (provisional ones for same-SCC callees).
func (ax *allocAnalysis) scanNode(k cgKey, _ map[cgKey]bool) *allocSummary {
	p := ax.cg.pkgOf[k]
	body := ax.cg.body[k]
	sum := &allocSummary{}
	if p == nil || body == nil {
		return sum
	}
	sc := &allocScan{ax: ax, p: p, sum: sum}
	switch k := k.(type) {
	case *types.Func:
		sc.sig, _ = k.Type().(*types.Signature)
	case *ast.FuncLit:
		sc.sig, _ = p.info.TypeOf(k).(*types.Signature)
	}
	// Reuse the effect analysis' taint and closure machinery so append-base
	// provenance agrees with the purity check's notion of caller-owned
	// storage.
	sc.fs = newTaintScan(ax.cg, k)
	sc.collectCallPositions(body)
	sc.walk(body, false)
	// Literal values that never leave this frame (immediately invoked, or
	// single-bound locals that are only called) fold their bodies in: the
	// literal runs on the definer's frame. Escaping literals were already
	// flagged as closure allocations by the walk; their bodies run on
	// someone else's path, so only the creation cost lands here. Go-launched
	// literals charge the go statement, not the body.
	for _, e := range ax.cg.edges[k] {
		lit, isLit := e.callee.(*ast.FuncLit)
		if !isLit || e.viaGo || !sc.captive(lit) {
			continue
		}
		if ls := ax.summaries[lit]; ls != nil {
			sc.inherit(ls, ax.cg.nodeName(lit), lit.Pos(), false)
		}
	}
	return sum
}

// allocScan is the per-node scan state.
type allocScan struct {
	ax  *allocAnalysis
	p   *pkg
	sum *allocSummary
	sig *types.Signature // the node's own signature, for return boxing
	fs  *taintScan       // storage provenance of append bases, once-bound literals
	// callFuns are the expressions in call-function position, so a selector
	// or literal used as a value (method value, escaping closure) can be
	// told from one that is simply being called.
	callFuns map[ast.Expr]bool
	// escaped marks single-bound literals whose variable is used anywhere
	// outside call position — passed as an argument, stored, returned — so
	// the binding really does create a heap closure.
	escaped map[*ast.FuncLit]bool
}

func (sc *allocScan) collectCallPositions(body *ast.BlockStmt) {
	sc.callFuns = map[ast.Expr]bool{}
	sc.escaped = map[*ast.FuncLit]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			sc.callFuns[ast.Unparen(call.Fun)] = true
		}
		return true
	})
	ast.Inspect(body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if v, ok := sc.p.info.Uses[id].(*types.Var); ok {
			if lit := sc.fs.closures[v]; lit != nil && !sc.callFuns[id] {
				sc.escaped[lit] = true
			}
		}
		return true
	})
}

// captive reports whether a literal's value never leaves this frame: it is
// either invoked where it stands or bound once to a local that is only
// ever called. Everything else — passed as an argument, stored, returned —
// escapes, and creating it allocates the closure.
func (sc *allocScan) captive(lit *ast.FuncLit) bool {
	if sc.callFuns[lit] {
		return true
	}
	if sc.escaped[lit] {
		return false
	}
	for _, bound := range sc.fs.closures {
		if bound == lit {
			return true
		}
	}
	return false
}

// site records one intrinsic allocation site, honoring a covering
// //hypatia:allocs(amortized) directive and the capacity-guard context.
func (sc *allocScan) site(what string, pos token.Pos, guarded bool) {
	c := allocAlways
	position := sc.p.fset.Position(pos)
	if guarded {
		c = allocAmortized
		what += " (under a capacity guard)"
	} else if d := sc.ax.amortizedAt[position.Filename][position.Line]; d != nil {
		c = allocAmortized
		what += " (//hypatia:allocs(amortized))"
		sc.ax.honored[d.Pos()] = true
	}
	sc.sum.add(c, origin{What: what, Site: position, pos: pos})
}

// always records a site the guard heuristic must not soften (dynamic and
// unknown calls, go statements); the explicit directive still applies.
func (sc *allocScan) always(what string, pos token.Pos) {
	sc.site(what, pos, false)
}

// amortized records a site already classified as caller-owned growth.
func (sc *allocScan) amortized(what string, pos token.Pos) {
	sc.sum.add(allocAmortized, origin{What: what, Site: sc.p.fset.Position(pos), pos: pos})
}

// inherit folds a callee summary into this node, extending the witness
// chain with the callee's name. A call under a capacity guard is the same
// provision-on-miss idiom whether the allocation is inline or inside the
// callee (`if s.G == nil { s.G = graph.New(n) }`), so the guard context
// downgrades inherited steady-state allocations too. So does an explicit
// //hypatia:allocs(amortized) directive covering the call line: the
// directive vouches for every allocation charged at that line, whether the
// site is inline or inside the summarized callee (one-time setup calls in
// otherwise steady-state loops are the intended use).
func (sc *allocScan) inherit(callee *allocSummary, name string, callPos token.Pos, guarded bool) {
	position := sc.p.fset.Position(callPos)
	for _, c := range []allocClass{allocAmortized, allocAlways} {
		o, ok := callee.origins[c]
		if !ok {
			continue
		}
		what := o.What
		if guarded && c == allocAlways {
			c = allocAmortized
			what += " (under a capacity guard)"
		} else if c == allocAlways {
			if d := sc.ax.amortizedAt[position.Filename][position.Line]; d != nil {
				c = allocAmortized
				what += " (//hypatia:allocs(amortized))"
				sc.ax.honored[d.Pos()] = true
			}
		}
		sc.sum.add(c, origin{
			What:  what,
			Site:  o.Site,
			Chain: append([]string{name}, o.Chain...),
			pos:   callPos,
		})
	}
}

// constBool resolves an expression to a compile-time boolean constant
// (check.Enabled under the default build configuration), if it is one.
func constBool(info *types.Info, e ast.Expr) (bool, bool) {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.Bool {
		return false, false
	}
	return constant.BoolVal(tv.Value), true
}

// capacityGuard reports whether an if-condition is a growth test: it
// mentions the cap builtin or compares something against nil. Sites in
// either branch of such an if are the arena-grow / pool-miss idiom —
// taken only when storage must be (re)provisioned, so amortized over the
// steady state.
func capacityGuard(info *types.Info, cond ast.Expr) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
				if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "cap" {
					found = true
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.EQL || n.Op == token.NEQ {
				for _, side := range []ast.Expr{n.X, n.Y} {
					if id, ok := ast.Unparen(side).(*ast.Ident); ok && id.Name == "nil" {
						found = true
					}
				}
			}
		}
		return !found
	})
	return found
}

// walk scans one statement tree. guarded is the capacity-guard context;
// function literals are separate nodes and dead branches (if-conditions
// that are compile-time false, e.g. check.Enabled) are skipped entirely.
func (sc *allocScan) walk(n ast.Node, guarded bool) {
	if n == nil {
		return
	}
	switch n := n.(type) {
	case *ast.IfStmt:
		sc.walk(n.Init, guarded)
		sc.scanExpr(n.Cond, guarded)
		if v, isConst := constBool(sc.p.info, n.Cond); isConst {
			if v {
				sc.walk(n.Body, guarded)
			} else {
				sc.walk(n.Else, guarded)
			}
			return
		}
		g := guarded || capacityGuard(sc.p.info, n.Cond)
		if !sc.panicTerminated(n.Body) {
			sc.walk(n.Body, g)
		}
		if n.Else != nil && !sc.panicTerminated(n.Else) {
			sc.walk(n.Else, g)
		}
		return
	case *ast.AssignStmt:
		sc.scanAssign(n, guarded)
	case *ast.ReturnStmt:
		sc.scanReturn(n, guarded)
	case *ast.GoStmt:
		// The launch itself allocates; the launched body runs on the new
		// goroutine's path and is not folded in. Arguments are evaluated on
		// this frame, so they still scan.
		sc.always("go statement allocates a goroutine", n.Pos())
		for _, a := range n.Call.Args {
			sc.scanExpr(a, guarded)
		}
		return
	case ast.Expr:
		sc.scanExpr(n, guarded)
		return
	}
	for _, child := range childStmts(n) {
		sc.walk(child, guarded)
	}
}

// panicTerminated reports whether a branch unconditionally ends in a call
// to the panic builtin. Such a branch is a failure path — it crashes the
// program — so nothing in it is a steady-state allocation; the canonical
// shape is `if bad { panic(fmt.Sprintf(...)) }` on an argument-validation
// prologue, and charging the Sprintf would force every checked hot path
// to drop its diagnostics.
func (sc *allocScan) panicTerminated(s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.BlockStmt:
		if len(s.List) == 0 {
			return false
		}
		return sc.panicTerminated(s.List[len(s.List)-1])
	case *ast.ExprStmt:
		call, ok := s.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok {
			return false
		}
		b, ok := sc.p.info.Uses[id].(*types.Builtin)
		return ok && b.Name() == "panic"
	}
	return false
}

// childStmts enumerates the direct children of a statement node, keeping
// the walk's guard context explicit without re-deriving ast.Inspect.
func childStmts(n ast.Node) []ast.Node {
	var out []ast.Node
	add := func(ns ...ast.Node) {
		for _, c := range ns {
			if c != nil && !isNilNode(c) {
				out = append(out, c)
			}
		}
	}
	switch n := n.(type) {
	case *ast.BlockStmt:
		for _, s := range n.List {
			add(s)
		}
	case *ast.ExprStmt:
		add(n.X)
	case *ast.SendStmt:
		add(n.Chan, n.Value)
	case *ast.IncDecStmt:
		add(n.X)
	case *ast.DeferStmt:
		add(n.Call)
	case *ast.LabeledStmt:
		add(n.Stmt)
	case *ast.ForStmt:
		add(n.Init, n.Cond, n.Post, n.Body)
	case *ast.RangeStmt:
		add(n.X, n.Body)
	case *ast.SwitchStmt:
		add(n.Init, n.Tag, n.Body)
	case *ast.TypeSwitchStmt:
		add(n.Init, n.Assign, n.Body)
	case *ast.CaseClause:
		for _, e := range n.List {
			add(e)
		}
		for _, s := range n.Body {
			add(s)
		}
	case *ast.SelectStmt:
		add(n.Body)
	case *ast.CommClause:
		add(n.Comm)
		for _, s := range n.Body {
			add(s)
		}
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				add(spec)
			}
		}
	case *ast.ValueSpec:
		for _, v := range n.Values {
			add(v)
		}
	}
	return out
}

// isNilNode guards against typed-nil interface children (e.g. a ForStmt
// with no Init).
func isNilNode(n ast.Node) bool {
	switch v := n.(type) {
	case ast.Stmt:
		return v == nil
	case ast.Expr:
		return v == nil
	}
	return false
}

// scanAssign handles the statement forms with allocation semantics of
// their own: map writes and interface boxing on the left-hand side.
func (sc *allocScan) scanAssign(n *ast.AssignStmt, guarded bool) {
	info := sc.p.info
	for _, lhs := range n.Lhs {
		if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
			if t := info.TypeOf(ix.X); t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					sc.site("map assignment may grow the map", lhs.Pos(), guarded)
				}
			}
		}
		sc.scanExpr(lhs, guarded)
	}
	if len(n.Lhs) == len(n.Rhs) {
		for i, rhs := range n.Rhs {
			if lt := info.TypeOf(n.Lhs[i]); lt != nil {
				sc.checkBoxing(lt, rhs, guarded)
			}
		}
	}
	for _, rhs := range n.Rhs {
		sc.scanExpr(rhs, guarded)
	}
}

// scanReturn flags results boxed into interface-typed return values.
func (sc *allocScan) scanReturn(n *ast.ReturnStmt, guarded bool) {
	if sc.sig != nil && len(n.Results) == sc.sig.Results().Len() {
		for i, r := range n.Results {
			sc.checkBoxing(sc.sig.Results().At(i).Type(), r, guarded)
		}
	}
	for _, r := range n.Results {
		sc.scanExpr(r, guarded)
	}
}

// checkBoxing flags a concrete, non-pointer-shaped value converted into an
// interface: the conversion copies the value to the heap. Pointer-shaped
// values (pointers, slices via their header? no — slices box too; only
// single-word pointer kinds) ride in the interface word directly.
func (sc *allocScan) checkBoxing(dst types.Type, src ast.Expr, guarded bool) {
	if dst == nil || src == nil {
		return
	}
	if _, isIface := dst.Underlying().(*types.Interface); !isIface {
		return
	}
	st := sc.p.info.TypeOf(src)
	if st == nil {
		return
	}
	if _, srcIface := st.Underlying().(*types.Interface); srcIface {
		return // interface-to-interface: no new box
	}
	if tv, ok := sc.p.info.Types[src]; ok && tv.IsNil() {
		return
	}
	if boxedFree(st) {
		return
	}
	sc.site(fmt.Sprintf("%s value boxed into an interface", types.TypeString(st, types.RelativeTo(sc.p.types))), src.Pos(), guarded)
}

// boxedFree reports whether values of t fit an interface word without a
// heap allocation: pointer-shaped single-word kinds.
func boxedFree(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return t.Underlying().(*types.Basic).Kind() == types.UnsafePointer
	}
	return false
}

// scanExpr scans one expression tree for allocation sites.
func (sc *allocScan) scanExpr(e ast.Expr, guarded bool) {
	if e == nil || isNilNode(e) {
		return
	}
	info := sc.p.info
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if !sc.captive(n) {
				sc.site("function literal escapes; creating the closure allocates", n.Pos(), guarded)
			}
			return false
		case *ast.CallExpr:
			sc.scanCall(n, guarded)
			// Arguments and the function expression are scanned by the
			// inspection itself; conversions recurse too.
			return true
		case *ast.CompositeLit:
			sc.scanCompositeLit(n, guarded)
			return true
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if lit, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					sc.site("address-taken composite literal allocates", lit.Pos(), guarded)
					// Still scan the literal's elements, but the literal
					// itself is already charged.
				}
			}
			return true
		case *ast.BinaryExpr:
			if n.Op == token.ADD {
				if t := info.TypeOf(n); t != nil {
					if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
						if tv, ok := info.Types[n]; !ok || tv.Value == nil {
							sc.site("string concatenation allocates", n.Pos(), guarded)
						}
					}
				}
			}
			return true
		case *ast.SelectorExpr:
			// A method value used as a value allocates the bound closure.
			if sel, ok := info.Selections[n]; ok && sel.Kind() == types.MethodVal && !sc.callFuns[n] {
				sc.site(fmt.Sprintf("method value %s allocates a bound closure", n.Sel.Name), n.Pos(), guarded)
			}
			return true
		}
		return true
	})
}

// scanCompositeLit charges slice and map literals; plain struct and array
// literals are stack values (an address-take or interface box charges them
// at that conversion instead: a value escapes by reference or by boxing,
// judged syntactically).
func (sc *allocScan) scanCompositeLit(lit *ast.CompositeLit, guarded bool) {
	t := sc.p.info.TypeOf(lit)
	if t == nil {
		return
	}
	switch t.Underlying().(type) {
	case *types.Slice:
		sc.site("slice literal allocates", lit.Pos(), guarded)
	case *types.Map:
		sc.site("map literal allocates", lit.Pos(), guarded)
	}
}

// scanCall classifies one call expression.
func (sc *allocScan) scanCall(call *ast.CallExpr, guarded bool) {
	info := sc.p.info
	fun := ast.Unparen(call.Fun)

	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		sc.scanConversion(call, guarded)
		return
	}
	if _, isLit := fun.(*ast.FuncLit); isLit {
		return // folds in through the definition edge
	}
	if id, ok := fun.(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			sc.scanBuiltin(b.Name(), call, guarded)
			return
		}
	}

	sc.checkArgBoxing(call, guarded)

	callee := resolveCallee(info, call)
	if callee == nil {
		if id, ok := fun.(*ast.Ident); ok {
			if v, ok := info.Uses[id].(*types.Var); ok {
				if sc.fs.closures[v] != nil {
					return // folds in through the definition edge
				}
			}
		}
		if named, ok := info.TypeOf(call.Fun).(*types.Named); ok && sc.ax.funcTypes[named.Obj()] {
			return
		}
		sc.always(fmt.Sprintf("calls %s dynamically (not through a //hypatia:noalloc function type)", exprLabel(call.Fun)), call.Pos())
		return
	}

	if _, hasBody := sc.ax.cg.body[callee]; hasBody {
		if cs := sc.ax.summaries[callee]; cs != nil {
			sc.inherit(cs, sc.ax.cg.nodeName(callee), call.Pos(), guarded)
		}
		return
	}
	if sc.ifaceBlessed(fun) {
		return
	}
	if callee.Pkg() == nil {
		sc.always(fmt.Sprintf("calls %s dynamically (interface method)", callee.Name()), call.Pos())
		return
	}
	if callee.Pkg().Path() == sc.ax.module || strings.HasPrefix(callee.Pkg().Path(), sc.ax.module+"/") {
		sc.always(fmt.Sprintf("calls interface method %s (allocation behavior unknown)", callee.Name()), call.Pos())
		return
	}
	sc.scanStdAlloc(call, callee)
}

// ifaceBlessed reports whether a method call goes through an interface
// annotated //hypatia:noalloc. Such calls are trusted here; the honesty
// side is checkAllocSafetyPkgs, which holds every module-local implementer
// to the contract.
func (sc *allocScan) ifaceBlessed(fun ast.Expr) bool {
	sel, ok := fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	s, ok := sc.p.info.Selections[sel]
	if !ok {
		return false
	}
	t := s.Recv()
	if ptr, isPtr := t.(*types.Pointer); isPtr {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && sc.ax.ifaces[named.Obj()]
}

// scanConversion charges the conversions that copy their operand to fresh
// storage: string <-> []byte / []rune, and value-to-interface boxing.
func (sc *allocScan) scanConversion(call *ast.CallExpr, guarded bool) {
	if len(call.Args) != 1 {
		return
	}
	info := sc.p.info
	dst := info.TypeOf(call.Fun)
	src := info.TypeOf(call.Args[0])
	if dst == nil || src == nil {
		return
	}
	if _, isIface := dst.Underlying().(*types.Interface); isIface {
		sc.checkBoxing(dst, call.Args[0], guarded)
		return
	}
	db, dstIsString := dst.Underlying().(*types.Basic)
	sb, srcIsString := src.Underlying().(*types.Basic)
	dstIsString = dstIsString && db.Info()&types.IsString != 0
	srcIsString = srcIsString && sb.Info()&types.IsString != 0
	_, dstIsSlice := dst.Underlying().(*types.Slice)
	_, srcIsSlice := src.Underlying().(*types.Slice)
	switch {
	case dstIsString && srcIsSlice:
		sc.site("[]byte-to-string conversion copies", call.Pos(), guarded)
	case dstIsSlice && srcIsString:
		sc.site("string-to-slice conversion copies", call.Pos(), guarded)
	case dstIsString && !srcIsString:
		// string(rune) / string(int): builds a fresh string.
		if tv, ok := info.Types[call]; !ok || tv.Value == nil {
			sc.site("conversion to string allocates", call.Pos(), guarded)
		}
	}
}

// scanBuiltin charges make/new and classifies append by the provenance of
// its base: growing a parameter- or global-derived slice is the amortized
// arena contract; growing a fresh local has no capacity story and counts
// as a steady-state allocation.
func (sc *allocScan) scanBuiltin(name string, call *ast.CallExpr, guarded bool) {
	switch name {
	case "make":
		sc.site("make allocates", call.Pos(), guarded)
	case "new":
		sc.site("new allocates", call.Pos(), guarded)
	case "append":
		if len(call.Args) == 0 {
			return
		}
		if sc.fs.exprTaint(call.Args[0]) >= taintParam {
			sc.amortized("append may grow caller-owned storage (amortized)", call.Pos())
		} else {
			sc.site("append may grow a fresh slice past its capacity", call.Pos(), guarded)
		}
	}
}

// checkArgBoxing flags concrete values boxed into interface parameters —
// the fmt/errors variadic pattern.
func (sc *allocScan) checkArgBoxing(call *ast.CallExpr, guarded bool) {
	sig, ok := sc.p.info.TypeOf(call.Fun).(*types.Signature)
	if !ok || call.Ellipsis.IsValid() {
		return
	}
	np := sig.Params().Len()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= np-1:
			if s, ok := sig.Params().At(np - 1).Type().(*types.Slice); ok {
				pt = s.Elem()
			}
		case i < np:
			pt = sig.Params().At(i).Type()
		}
		if pt != nil {
			sc.checkBoxing(pt, arg, guarded)
		}
	}
}

// ---- standard-library allocation summaries ----

// noallocStdPkgs are packages whose every function is allocation-free.
var noallocStdPkgs = map[string]bool{
	"math": true, "math/bits": true, "cmp": true, "sync/atomic": true,
	"unicode": true, "unicode/utf8": true, "unicode/utf16": true,
}

// noallocStdFuncs are individually whitelisted allocation-free functions
// and methods (keyed like stdLabel renders them).
var noallocStdFuncs = map[string]bool{
	"sort.SearchInts": true, "sort.SearchFloat64s": true, "sort.SearchStrings": true,
	"sort.Search": true, "sort.Ints": true, "sort.Float64s": true, "sort.Strings": true,
	"sort.IntsAreSorted": true, "sort.Float64sAreSorted": true, "sort.StringsAreSorted": true,
	"slices.Equal": true, "slices.Index": true, "slices.Contains": true,
	"slices.Max": true, "slices.Min": true, "slices.BinarySearch": true,
	"slices.Sort": true, "slices.Reverse": true, "slices.IsSorted": true,
	"strings.EqualFold": true, "strings.Compare": true, "strings.Contains": true,
	"strings.HasPrefix": true, "strings.HasSuffix": true, "strings.IndexByte": true,
	"strings.Index": true, "strings.Count": true, "strings.LastIndex": true,
	"bytes.Equal": true, "bytes.Compare": true, "bytes.IndexByte": true,
}

// amortizedStdFuncs allocate only to grow storage they manage for the
// caller: pool misses and explicit growth.
var amortizedStdFuncs = map[string]bool{
	"sync.Pool.Get": true, "sync.Pool.Put": true, "slices.Grow": true,
	"strconv.AppendInt": true, "strconv.AppendUint": true,
	"strconv.AppendFloat": true, "strconv.AppendQuote": true,
}

// stdAllocSummary returns the allocation class of a standard-library
// function, and whether the table knows it at all.
func stdAllocSummary(fn *types.Func) (allocClass, bool) {
	path := fn.Pkg().Path()
	sig, _ := fn.Type().(*types.Signature)
	isMethod := sig != nil && sig.Recv() != nil
	label := stdLabel(fn)

	if amortizedStdFuncs[label] {
		return allocAmortized, true
	}
	if noallocStdFuncs[label] {
		return allocNone, true
	}
	switch path {
	case "time":
		if !isMethod && wallClockFuncs[fn.Name()] {
			return allocNone, true // Now/Since return values, no heap traffic
		}
		if isMethod || fn.Name() == "Duration" || fn.Name() == "Unix" {
			return allocNone, true
		}
		return allocAlways, true // tickers, timers, parsing
	case "sync":
		if isMethod {
			// Pool methods are handled above; the lock/waitgroup/once family
			// is allocation-free.
			return allocNone, true
		}
		return allocAlways, true // OnceFunc and friends allocate closures
	case "fmt", "errors", "os", "io", "bufio", "log", "reflect":
		return allocAlways, true
	}
	if noallocStdPkgs[path] {
		return allocNone, true
	}
	return allocAlways, false
}

// scanStdAlloc applies the standard-library allocation table.
func (sc *allocScan) scanStdAlloc(call *ast.CallExpr, callee *types.Func) {
	class, known := stdAllocSummary(callee)
	switch {
	case !known:
		sc.always(fmt.Sprintf("calls %s (no allocation summary for this standard-library function)", stdLabel(callee)), call.Pos())
	case class == allocAlways:
		sc.always(fmt.Sprintf("calls %s (allocates)", stdLabel(callee)), call.Pos())
	case class == allocAmortized:
		sc.amortized(fmt.Sprintf("calls %s (amortized growth)", stdLabel(callee)), call.Pos())
	}
}
