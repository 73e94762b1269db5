package main

// Interprocedural effect analysis: the engine behind the purity check.
//
// Every call-graph node (declared function, method, or function literal)
// gets an effect summary — a set of bits of the lattice below with one
// witness per bit — computed bottom-up by the contract engine in
// contract.go; this file is the lattice and the per-node scan.
//
// The analysis distinguishes caller-owned mutation from shared mutation:
// writing through a parameter or receiver pointee (effMutatesPointee) is the
// arena contract the forwarding-state pipeline is built on — the caller
// hands the callee storage to fill — and does not disqualify purity by
// itself. It composes at call sites instead: passing package-level state to
// a pointee-writing callee is a global write in the caller.
//
// Unknown callees default to impure (effUnknownCall): dynamic calls through
// plain function values, interface methods, and standard-library functions
// without an entry in the summary table. Two escape hatches are deliberate
// and visible: a named function type annotated //hypatia:pure (values of
// that type are pure by documented contract — core.Strategy), and the usual
// //lint:ignore purity suppression at the finding site.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// effect is one bit of the effect lattice.
type effect uint32

const (
	effWritesGlobal   effect = 1 << iota // writes a package-level variable, directly or through an alias
	effReadsGlobal                       // reads a package-level variable that its own package mutates
	effTime                              // reads the wall clock (time.Now and friends)
	effRand                              // draws from the global math/rand source
	effIO                                // writes to a file, stream, or log
	effSpawn                             // launches a goroutine
	effChan                              // channel communication: send, receive, close, select
	effMapOrder                          // ranges over a map: iteration order leaks into results
	effUnknownCall                       // calls something the analysis cannot see
	effMutatesPointee                    // writes through a parameter/receiver pointee (caller-owned arena; composes at call sites)
)

// effImpure is the set of effects that disqualify a //hypatia:pure function.
// effMutatesPointee is excluded: arena filling is the pipeline's contract.
const effImpure = effWritesGlobal | effReadsGlobal | effTime | effRand |
	effIO | effSpawn | effChan | effMapOrder | effUnknownCall

// effectNames are the lattice bits in summary order, with the names the
// standard-library summary messages use.
var effectNames = []struct {
	bit  effect
	name string
}{
	{effWritesGlobal, "writes-global"},
	{effReadsGlobal, "reads-mutable-global"},
	{effTime, "wall-clock"},
	{effRand, "global-rand"},
	{effIO, "io"},
	{effSpawn, "spawns-goroutine"},
	{effChan, "channel-io"},
	{effMapOrder, "map-order"},
	{effUnknownCall, "unknown-call"},
	{effMutatesPointee, "mutates-pointee"},
}

// effectAnalysis is the module-wide result: the //hypatia:pure contract
// (directive index plus a summary per node) and the mutable-global set the
// scan reads.
type effectAnalysis struct {
	*contract
	// mutableGlobals are package-level variables assigned (or having their
	// address taken) somewhere in their own package outside declarations.
	// Reads of other package-level variables are treated as constant loads.
	mutableGlobals map[*types.Var]bool
}

// analyzeEffects computes effect summaries for every node of the call graph.
func analyzeEffects(all []*pkg, cg *callGraph, module string) *effectAnalysis {
	an := &effectAnalysis{
		contract: &contract{
			cg: cg, module: module,
			summaries: map[cgKey]*funcSummary{},
			fns:       map[*types.Func]bool{},
			funcTypes: map[*types.TypeName]bool{},
			ifaces:    map[*types.TypeName]bool{},
			honored:   map[token.Pos]bool{},
		},
		mutableGlobals: map[*types.Var]bool{},
	}
	for _, p := range all {
		an.collectMutableGlobals(p)
	}
	an.solve(all)
	return an
}

// collectMutableGlobals marks every package-level variable of p that p
// itself assigns or aliases. Cross-package writes to exported variables are
// caught at the writer (effWritesGlobal) but do not flip the reader's view;
// this keeps a package's facts a function of itself and its dependencies,
// so its findings do not depend on which other packages a run loads.
func (an *effectAnalysis) collectMutableGlobals(p *pkg) {
	mark := func(e ast.Expr) {
		root, _ := writeRoot(p.info, e)
		id, ok := root.(*ast.Ident)
		if !ok {
			if sel, isSel := root.(*ast.SelectorExpr); isSel {
				id = sel.Sel
			} else {
				return
			}
		}
		if obj, ok := p.info.Uses[id].(*types.Var); ok && isPkgLevelVar(obj) && obj.Pkg() == p.types {
			an.mutableGlobals[obj] = true
		}
	}
	for _, f := range p.files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					mark(lhs)
				}
			case *ast.IncDecStmt:
				mark(n.X)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					mark(n.X)
				}
			}
			return true
		})
	}
}

// isPkgLevelVar reports whether obj is a package-level variable (not a
// field, parameter, or local).
func isPkgLevelVar(obj *types.Var) bool {
	return obj != nil && !obj.IsField() && obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope()
}

// writeRoot walks an assignment target down to its base expression: p.f[i]
// and *p.f both root at p, while a qualified reference to another package's
// variable (pkg.Var) is its own root. deref reports whether the write goes
// through at least one indirection (field, index, or pointer), i.e. mutates
// a pointee rather than rebinding the root itself.
func writeRoot(info *types.Info, e ast.Expr) (root ast.Expr, deref bool) {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.IndexExpr:
			e, deref = x.X, true
		case *ast.StarExpr:
			e, deref = x.X, true
		case *ast.SelectorExpr:
			if id, ok := ast.Unparen(x.X).(*ast.Ident); ok {
				if _, isPkg := info.Uses[id].(*types.PkgName); isPkg {
					return x, deref
				}
			}
			e, deref = x.X, true
		default:
			return ast.Unparen(e), deref
		}
	}
}

// ---- per-node scan ----

// scanNode computes one node's effect mask from its body, composing callee
// summaries (provisional ones for same-SCC callees).
func (an *effectAnalysis) scanNode(k cgKey, inSCC map[cgKey]bool) *funcSummary {
	sum := &funcSummary{}
	if an.cg.pkgOf[k] == nil || an.cg.body[k] == nil {
		return sum
	}
	fs := &funcScan{taintScan: newTaintScan(an.cg, k), an: an, sum: sum, inSCC: inSCC}
	fs.walk()
	// Effects of function literals defined in this body (but not launched
	// with go) fold into the definer: the literal runs on the definer's
	// frame whenever it runs at all, and tracking the values it flows
	// through is beyond the dynamic-call rules. Pointee mutation folds too:
	// a literal writing captured state mutates storage the definer answers
	// for.
	for _, e := range an.cg.edges[k] {
		lit, isLit := e.callee.(*ast.FuncLit)
		if !isLit || e.viaGo {
			continue
		}
		if ls := an.summaries[lit]; ls != nil {
			fs.inherit(ls, an.cg.nodeName(lit), lit.Pos())
			if ls.has(effMutatesPointee) {
				sum.add(effMutatesPointee, ls.origins[effMutatesPointee])
			}
		}
	}
	return sum
}

// taintClass tracks where a value's storage may live.
type taintClass uint8

const (
	taintLocal  taintClass = iota // fresh or frame-local storage
	taintParam                    // parameter/receiver pointees, captured outer frame
	taintGlobal                   // package-level storage (directly or via alias)
)

// taintScan is the storage-provenance view of one node's body: which
// variables are parameters, where each local's storage may live, and which
// locals are bound once to a literal.
type taintScan struct {
	p      *pkg
	body   *ast.BlockStmt
	params map[*types.Var]bool
	taints map[*types.Var]taintClass
	// closures maps local variables bound exactly once to a function literal
	// (and never reassigned or address-taken) to that literal. Calls through
	// such a variable are calls to the literal, whose effects already fold
	// into this node through its definition edge — not dynamic calls.
	closures map[*types.Var]*ast.FuncLit
}

// funcScan is the per-node effect-scan state.
type funcScan struct {
	*taintScan
	an    *effectAnalysis
	sum   *funcSummary
	inSCC map[cgKey]bool
	// trustPure makes calls to //hypatia:pure functions effect-free (their
	// contract is verified at their own declaration). Root-body scans set
	// it; the summary fixpoint does not, so summaries stay directive-free.
	trustPure bool
}

// newTaintScan solves the provenance of node k, which must have a body.
func newTaintScan(cg *callGraph, k cgKey) *taintScan {
	fs := &taintScan{
		p:      cg.pkgOf[k],
		body:   cg.body[k],
		params: map[*types.Var]bool{},
		taints: map[*types.Var]taintClass{},
	}
	addField := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, name := range f.Names {
				if v, ok := fs.p.info.Defs[name].(*types.Var); ok {
					fs.params[v] = true
				}
			}
		}
	}
	switch k := k.(type) {
	case *types.Func:
		if decl := cg.declOf[k]; decl != nil {
			addField(decl.Recv)
			addField(decl.Type.Params)
		}
	case *ast.FuncLit:
		addField(k.Type.Params)
	}
	fs.solveTaint()
	fs.collectClosures()
	return fs
}

// classOf resolves the taint class of a variable reference.
func (fs *taintScan) classOf(obj *types.Var) taintClass {
	if isPkgLevelVar(obj) {
		// Loading a value-typed global yields a copy — local storage.
		// Pointerish globals alias package-level storage even when the
		// package never reassigns them (graph.Infinity is value-typed and
		// never written, so reading it is a constant load; a global slice
		// taints its readers so write-throughs still flag).
		if pointerish(obj.Type()) {
			return taintGlobal
		}
		return taintLocal
	}
	if t, ok := fs.taints[obj]; ok {
		return t
	}
	if fs.params[obj] {
		return taintParam
	}
	if obj.Pos() >= fs.body.Pos() && obj.Pos() <= fs.body.End() {
		return taintLocal
	}
	// Free variable captured from the enclosing function: caller-owned.
	return taintParam
}

// pointerish reports whether values of t can alias storage (contain a
// pointer, slice, map, channel, function, or interface anywhere).
func pointerish(t types.Type) bool {
	return pointerishSeen(t, map[types.Type]bool{})
}

func pointerishSeen(t types.Type, seen map[types.Type]bool) bool {
	if t == nil || seen[t] {
		return false
	}
	seen[t] = true
	switch u := t.Underlying().(type) {
	case *types.Basic:
		// Strings are immutable: no writable aliasing.
		return u.Kind() == types.UnsafePointer
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Signature, *types.Interface:
		return true
	case *types.Array:
		return pointerishSeen(u.Elem(), seen)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if pointerishSeen(u.Field(i).Type(), seen) {
				return true
			}
		}
	}
	return false
}

// exprTaint computes the taint class of an expression's value.
func (fs *taintScan) exprTaint(e ast.Expr) taintClass {
	if e == nil {
		return taintLocal
	}
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj, ok := fs.p.info.Uses[e].(*types.Var); ok {
			return fs.classOf(obj)
		}
	case *ast.SelectorExpr:
		// Qualified reference to another package's variable.
		if obj, ok := fs.p.info.Uses[e.Sel].(*types.Var); ok && isPkgLevelVar(obj) {
			return fs.classOf(obj)
		}
		return fs.exprTaint(e.X)
	case *ast.IndexExpr:
		return fs.exprTaint(e.X)
	case *ast.IndexListExpr:
		return fs.exprTaint(e.X)
	case *ast.SliceExpr:
		return fs.exprTaint(e.X)
	case *ast.StarExpr:
		return fs.exprTaint(e.X)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return fs.exprTaint(e.X)
		}
		return taintLocal
	case *ast.BinaryExpr:
		return maxTaint(fs.exprTaint(e.X), fs.exprTaint(e.Y))
	case *ast.CompositeLit:
		t := taintLocal
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			t = maxTaint(t, fs.exprTaint(el))
		}
		return t
	case *ast.CallExpr:
		// A call result may alias whatever went in: max over the
		// arguments and the receiver base. (A pure callee cannot leak
		// globals it never touched, and impure callees are flagged
		// anyway, so this is the only aliasing a result can carry.)
		t := taintLocal
		if sel, ok := ast.Unparen(e.Fun).(*ast.SelectorExpr); ok {
			if _, isMethod := fs.p.info.Selections[sel]; isMethod {
				t = maxTaint(t, fs.exprTaint(sel.X))
			}
		}
		for _, a := range e.Args {
			t = maxTaint(t, fs.exprTaint(a))
		}
		return t
	case *ast.TypeAssertExpr:
		return fs.exprTaint(e.X)
	}
	return taintLocal
}

func maxTaint(a, b taintClass) taintClass {
	if a > b {
		return a
	}
	return b
}

// solveTaint propagates taint through the node's assignments to fixpoint.
// Flow-insensitive: a local ever assigned global-aliasing storage is
// global-tainted everywhere.
func (fs *taintScan) solveTaint() {
	type asg struct {
		obj *types.Var
		rhs ast.Expr
	}
	var asgs []asg
	record := func(lhs, rhs ast.Expr) {
		if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
			obj, _ := fs.p.info.Defs[id].(*types.Var)
			if obj == nil {
				obj, _ = fs.p.info.Uses[id].(*types.Var)
			}
			if obj != nil && !isPkgLevelVar(obj) {
				asgs = append(asgs, asg{obj, rhs})
			}
		}
	}
	fs.shallowWalk(func(n ast.Node) {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if len(n.Rhs) == len(n.Lhs) {
					record(lhs, n.Rhs[i])
				} else if len(n.Rhs) == 1 {
					record(lhs, n.Rhs[0])
				}
			}
		case *ast.RangeStmt:
			if n.Value != nil {
				record(n.Value, n.X)
			}
			if n.Key != nil {
				record(n.Key, nil)
			}
		}
	})
	for changed := true; changed; {
		changed = false
		for _, a := range asgs {
			t := fs.exprTaint(a.rhs)
			if t > fs.taints[a.obj] {
				fs.taints[a.obj] = t
				changed = true
			}
		}
	}
}

// shallowWalk visits the node's body without descending into nested
// function literals (they are separate call-graph nodes).
func (fs *taintScan) shallowWalk(visit func(ast.Node)) {
	bodyInspect(fs.body, visit)
}

// bodyInspect walks a whole function body without entering nested literals.
func bodyInspect(body *ast.BlockStmt, visit func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n != nil {
			visit(n)
		}
		return true
	})
}

func (fs *funcScan) add(bit effect, what string, pos token.Pos) {
	fs.sum.add(bit, origin{What: what, Site: fs.p.fset.Position(pos), pos: pos})
}

// inherit folds a callee summary's impure bits into this node, extending
// the witness chain with the callee's name. callPos is the local call (or
// literal) site the inherited effects are attributed to.
func (fs *funcScan) inherit(callee *funcSummary, name string, callPos token.Pos) {
	for _, en := range effectNames {
		if en.bit&effImpure == 0 || !callee.has(en.bit) {
			continue
		}
		o := callee.origins[en.bit]
		fs.sum.add(en.bit, origin{
			What:  o.What,
			Site:  o.Site,
			Chain: append([]string{name}, o.Chain...),
			pos:   callPos,
		})
	}
}

// collectClosures finds single-assignment local function-literal bindings.
// The scan covers nested literals too: a reassignment or &-take anywhere in
// the body disqualifies the variable.
func (fs *taintScan) collectClosures() {
	fs.closures = map[*types.Var]*ast.FuncLit{}
	assigns := map[*types.Var]int{}
	litOf := map[*types.Var]*ast.FuncLit{}
	unsafe := map[*types.Var]bool{}
	varOf := func(e ast.Expr) *types.Var {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return nil
		}
		if v, ok := fs.p.info.Defs[id].(*types.Var); ok {
			return v
		}
		v, _ := fs.p.info.Uses[id].(*types.Var)
		return v
	}
	ast.Inspect(fs.body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				v := varOf(lhs)
				if v == nil {
					continue
				}
				assigns[v]++
				if len(n.Rhs) == len(n.Lhs) {
					if lit, ok := ast.Unparen(n.Rhs[i]).(*ast.FuncLit); ok {
						litOf[v] = lit
					}
				}
			}
		case *ast.ValueSpec:
			for i, name := range n.Names {
				v := varOf(name)
				if v == nil {
					continue
				}
				assigns[v]++
				if i < len(n.Values) {
					if lit, ok := ast.Unparen(n.Values[i]).(*ast.FuncLit); ok {
						litOf[v] = lit
					}
				}
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if v := varOf(n.X); v != nil {
					unsafe[v] = true
				}
			}
		}
		return true
	})
	for v, lit := range litOf {
		if assigns[v] == 1 && !unsafe[v] {
			fs.closures[v] = lit
		}
	}
}

// walk performs the effect scan proper.
func (fs *funcScan) walk() {
	info := fs.p.info
	fs.shallowWalk(func(n ast.Node) {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				fs.recordWrite(lhs)
			}
		case *ast.IncDecStmt:
			fs.recordWrite(n.X)
		case *ast.GoStmt:
			fs.add(effSpawn, "launches a goroutine", n.Pos())
		case *ast.SendStmt:
			fs.add(effChan, "sends on a channel", n.Pos())
		case *ast.SelectStmt:
			fs.add(effChan, "selects over channels", n.Pos())
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				fs.add(effChan, "receives from a channel", n.Pos())
			}
		case *ast.RangeStmt:
			t := info.TypeOf(n.X)
			if t == nil {
				break
			}
			switch t.Underlying().(type) {
			case *types.Map:
				fs.add(effMapOrder, "ranges over a map (iteration order is randomized per run)", n.Pos())
			case *types.Chan:
				fs.add(effChan, "ranges over a channel", n.Pos())
			}
		case *ast.Ident:
			if obj, ok := info.Uses[n].(*types.Var); ok && isPkgLevelVar(obj) && fs.an.mutableGlobals[obj] {
				fs.add(effReadsGlobal, fmt.Sprintf("reads mutable package-level variable %s", obj.Name()), n.Pos())
			}
		case *ast.CallExpr:
			fs.scanCall(n)
		}
	})
}

// recordWrite classifies one assignment target.
func (fs *funcScan) recordWrite(lhs ast.Expr) {
	root, deref := writeRoot(fs.p.info, lhs)
	switch r := root.(type) {
	case *ast.Ident:
		obj, ok := fs.p.info.Uses[r].(*types.Var)
		if !ok {
			if obj, ok = fs.p.info.Defs[r].(*types.Var); !ok {
				return
			}
		}
		if isPkgLevelVar(obj) {
			fs.add(effWritesGlobal, fmt.Sprintf("writes package-level variable %s", obj.Name()), lhs.Pos())
			return
		}
		if !deref {
			// Rebinding the variable itself. A parameter or body-local
			// rebind touches only this frame; a captured outer variable
			// lives in the enclosing (caller-owned) frame.
			if !fs.params[obj] && !(obj.Pos() >= fs.body.Pos() && obj.Pos() <= fs.body.End()) {
				fs.sum.add(effMutatesPointee, origin{What: fmt.Sprintf("writes captured variable %s", obj.Name()), Site: fs.p.fset.Position(lhs.Pos())})
			}
			return
		}
		switch fs.classOf(obj) {
		case taintGlobal:
			fs.add(effWritesGlobal, fmt.Sprintf("writes package-level state through alias %s", obj.Name()), lhs.Pos())
		case taintParam:
			fs.sum.add(effMutatesPointee, origin{What: "writes a caller-owned pointee", Site: fs.p.fset.Position(lhs.Pos())})
		}
	case *ast.SelectorExpr:
		// Qualified write to another package's variable.
		if obj, ok := fs.p.info.Uses[r.Sel].(*types.Var); ok && isPkgLevelVar(obj) {
			fs.add(effWritesGlobal, fmt.Sprintf("writes package-level variable %s.%s", obj.Pkg().Name(), obj.Name()), lhs.Pos())
		}
	default:
		switch fs.exprTaint(root) {
		case taintGlobal:
			fs.add(effWritesGlobal, "writes package-level state through an aliasing expression", lhs.Pos())
		case taintParam:
			fs.sum.add(effMutatesPointee, origin{What: "writes a caller-owned pointee", Site: fs.p.fset.Position(lhs.Pos())})
		}
	}
}

// scanCall classifies one call expression.
func (fs *funcScan) scanCall(call *ast.CallExpr) {
	info := fs.p.info
	fun := ast.Unparen(call.Fun)

	// Conversions are value operations, not calls.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		return
	}
	// Immediately invoked literals: the literal's effects are folded into
	// this node through its definition edge.
	if _, isLit := fun.(*ast.FuncLit); isLit {
		return
	}
	// Builtins.
	if id, ok := fun.(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			fs.scanBuiltin(b.Name(), call)
			return
		}
	}

	callee := resolveCallee(info, call)
	if callee == nil {
		// A call through a variable bound once to a function literal is a
		// call to that literal. Its interior effects fold in through the
		// definition edge; only the pointee composition applies here.
		if id, ok := fun.(*ast.Ident); ok {
			if v, ok := info.Uses[id].(*types.Var); ok {
				if lit := fs.closures[v]; lit != nil {
					sum := fs.an.summaries[lit]
					if sum == nil || sum.has(effMutatesPointee) {
						fs.composePointeeWrite(call, fs.an.cg.nodeName(lit))
					}
					return
				}
			}
		}
		// Dynamic call: allowed only through a function type whose
		// declaration carries //hypatia:pure (the documented contract,
		// e.g. core.Strategy).
		if named, ok := info.TypeOf(call.Fun).(*types.Named); ok && fs.an.funcTypes[named.Obj()] {
			return
		}
		fs.add(effUnknownCall, fmt.Sprintf("calls %s dynamically (not through a //hypatia:pure function type)", exprLabel(call.Fun)), call.Pos())
		return
	}

	if _, hasBody := fs.an.cg.body[callee]; hasBody {
		sum := fs.an.summaries[callee]
		mutates := sum == nil || sum.has(effMutatesPointee) || fs.inSCC[callee]
		// In trustPure mode (root-body scans), an annotated callee's
		// interior effects are its own contract, verified at its
		// declaration; only the pointee composition still applies here.
		if sum != nil && !(fs.trustPure && fs.an.fns[callee]) {
			fs.inherit(sum, fs.an.cg.nodeName(callee), call.Pos())
		}
		if mutates {
			fs.composePointeeWrite(call, fs.an.cg.nodeName(callee))
		}
		return
	}

	// A method of a //hypatia:pure interface is pure by contract; the
	// purity check verifies every module-local implementation.
	if sig, ok := callee.Type().(*types.Signature); ok && sig.Recv() != nil {
		if named, ok := sig.Recv().Type().(*types.Named); ok {
			if _, isIface := named.Underlying().(*types.Interface); isIface && fs.an.ifaces[named.Obj()] {
				return
			}
		}
	}
	if callee.Pkg() == nil {
		// Universe-scope interface method (error.Error).
		fs.add(effUnknownCall, fmt.Sprintf("calls %s dynamically (interface method)", callee.Name()), call.Pos())
		return
	}
	if callee.Pkg().Path() == fs.an.module || strings.HasPrefix(callee.Pkg().Path(), fs.an.module+"/") {
		// Module-local but bodyless: an interface method.
		fs.add(effUnknownCall, fmt.Sprintf("calls interface method %s (callee unknown)", callee.Name()), call.Pos())
		return
	}
	fs.scanStdCall(call, callee)
}

// composePointeeWrite applies the call-site composition rule for a callee
// that writes through its parameters: handing it package-level state is a
// global write here; handing it our own parameters propagates the pointee
// bit.
func (fs *funcScan) composePointeeWrite(call *ast.CallExpr, name string) {
	t := taintLocal
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if _, isMethod := fs.p.info.Selections[sel]; isMethod {
			t = maxTaint(t, fs.exprTaint(sel.X))
		}
	}
	for _, a := range call.Args {
		t = maxTaint(t, fs.exprTaint(a))
	}
	switch t {
	case taintGlobal:
		fs.add(effWritesGlobal, fmt.Sprintf("passes package-level state to %s, which writes through its parameters", name), call.Pos())
	case taintParam:
		fs.sum.add(effMutatesPointee, origin{What: "forwards caller-owned storage to a pointee-writing callee", Site: fs.p.fset.Position(call.Pos())})
	}
}

// scanBuiltin handles the builtins with write or IO semantics.
func (fs *funcScan) scanBuiltin(name string, call *ast.CallExpr) {
	switch name {
	case "append", "copy", "delete", "clear":
		if len(call.Args) == 0 {
			return
		}
		switch fs.exprTaint(call.Args[0]) {
		case taintGlobal:
			fs.add(effWritesGlobal, fmt.Sprintf("%s mutates package-level storage", name), call.Pos())
		case taintParam:
			if name != "append" {
				// append(x, ...) rebinds; the caller sees the mutation
				// only through the returned slice, which the assignment
				// rules track.
				fs.sum.add(effMutatesPointee, origin{What: name + " mutates a caller-owned buffer", Site: fs.p.fset.Position(call.Pos())})
			}
		}
	case "close":
		fs.add(effChan, "closes a channel", call.Pos())
	case "print", "println":
		fs.add(effIO, "writes to stderr via builtin "+name, call.Pos())
	}
}

// scanStdCall applies the standard-library summary table.
func (fs *funcScan) scanStdCall(call *ast.CallExpr, callee *types.Func) {
	mask, mutates, known := stdSummary(callee)
	if !known {
		fs.add(effUnknownCall, fmt.Sprintf("calls %s (no purity summary for this standard-library function)", stdLabel(callee)), call.Pos())
		return
	}
	for _, en := range effectNames {
		if mask&en.bit != 0 {
			fs.add(en.bit, fmt.Sprintf("calls %s (%s)", stdLabel(callee), en.name), call.Pos())
		}
	}
	if mutates {
		fs.composePointeeWrite(call, stdLabel(callee))
	}
}

func stdLabel(fn *types.Func) string {
	return fn.Pkg().Path() + "." + fnDisplay(fn)
}

func exprLabel(e ast.Expr) string {
	s := types.ExprString(e)
	if len(s) > 40 {
		s = s[:40] + "…"
	}
	return s
}

// purePkgs are standard-library packages whose every function is free of
// the effects the lattice tracks (pure value computation).
var purePkgs = map[string]bool{
	"math": true, "math/bits": true, "math/cmplx": true,
	"strconv": true, "unicode": true, "unicode/utf8": true, "unicode/utf16": true,
	"errors": true,
}

// pureStdFuncs are individually whitelisted standard-library functions.
var pureStdFuncs = map[string]bool{
	"fmt.Sprintf": true, "fmt.Sprint": true, "fmt.Sprintln": true, "fmt.Errorf": true,
	"sort.SearchInts": true, "sort.SearchFloat64s": true, "sort.SearchStrings": true,
	"sort.IntsAreSorted": true, "sort.Float64sAreSorted": true, "sort.StringsAreSorted": true,
	"slices.Equal": true, "slices.Index": true, "slices.Contains": true,
	"slices.Max": true, "slices.Min": true, "slices.Clone": true, "slices.BinarySearch": true,
	"cmp.Compare": true, "cmp.Less": true, "cmp.Or": true,
}

// mutatingStdFuncs write through their arguments (or receiver) but have no
// other effect; the call-site composition rule decides whether that is a
// caller-owned or global mutation.
var mutatingStdFuncs = map[string]bool{
	"sort.Ints": true, "sort.Float64s": true, "sort.Strings": true,
	"slices.Sort": true, "slices.Reverse": true,
}

// wallClockFuncs are the package-level time functions that read or depend
// on the wall clock: the Time effect.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

// seededRandCtors are the math/rand package-level functions that only
// construct explicitly seeded generators; every other package-level
// function draws from the global source, the Rand effect.
var seededRandCtors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true, "NewPCG": true, "NewChaCha8": true,
}

// stdSummary returns the effect summary of a standard-library function:
// mask (effects regardless of arguments), mutates (writes through receiver
// or pointer arguments), and whether the function is known at all.
func stdSummary(fn *types.Func) (mask effect, mutates bool, known bool) {
	path := fn.Pkg().Path()
	sig, _ := fn.Type().(*types.Signature)
	isMethod := sig != nil && sig.Recv() != nil

	switch path {
	case "time":
		if !isMethod && wallClockFuncs[fn.Name()] {
			return effTime, false, true
		}
		return 0, false, true // Duration/Time value methods and constructors
	case "math/rand", "math/rand/v2":
		if isMethod {
			return 0, true, true // explicitly seeded generators mutate their own state
		}
		if seededRandCtors[fn.Name()] {
			return 0, false, true
		}
		return effRand, false, true
	case "sync":
		if isMethod {
			return 0, false, true // lock ordering is scheduling, not data; the guarded data has its own rules
		}
		return 0, false, false
	case "sync/atomic":
		return 0, true, true
	case "strings":
		if isMethod {
			return 0, true, true // Builder/Reader methods mutate their receiver
		}
		return 0, false, true
	case "fmt":
		if pureStdFuncs["fmt."+fn.Name()] {
			return 0, false, true
		}
		if strings.HasPrefix(fn.Name(), "Print") || strings.HasPrefix(fn.Name(), "Fprint") {
			return effIO, false, true
		}
		return 0, false, false
	case "os", "io", "bufio", "log", "net", "net/http", "path/filepath":
		return effIO, false, true
	}
	if purePkgs[path] {
		return 0, false, true
	}
	key := path + "." + fn.Name()
	if pureStdFuncs[key] {
		return 0, false, true
	}
	if mutatingStdFuncs[key] {
		return 0, true, true
	}
	return 0, false, false
}
