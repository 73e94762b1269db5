package main

// Andersen-style, flow-insensitive, field-sensitive points-to analysis over
// the hypatialint call graph. The solver half of this file is AST-free — a
// constraint graph of nodes (variables and temporaries) and objects
// (allocation sites and storage cells) with the four classic inclusion
// constraints (address-of, copy, load, store) plus a struct-copy constraint
// for assignments through pointers to struct values — so the test suite can
// drive it with hand-built graphs. The generation half walks function
// bodies, in the deterministic package/file order the call graph already
// maintains, and translates Go statements into constraints.
//
// The model is tuned for the confinement check (escape.go), which only has
// to answer "which goroutines can reach this object":
//
//   - Struct values alias by copy: a struct-typed variable points at a
//     storage object, and `v = w` unions the storage sets instead of
//     copying field-by-field. This over-approximates sharing, which is the
//     safe direction for an escape analysis.
//   - Channel operations are ownership-transfer points. A send adds no
//     constraint (the value leaves the sender's world) and a receive mints
//     a fresh "epoch" object of the channel's element type.
//   - Calls to //hypatia:transfer functions are likewise cut: arguments and
//     receiver are consumed, and results are fresh per-call-site epoch
//     objects. TablePool.Empty / ForwardingTable.Release are the canonical
//     pair.
//   - Dynamic calls through a //hypatia:pure named function type or pure
//     interface mint epoch results and retain nothing — the documented
//     no-retention contract of core.Strategy extends to ownership.
//   - Unresolved or out-of-module calls retain their arguments in an opaque
//     object and pass them through to results, so aliasing survives
//     helpers the solver cannot see into.
//
// The analysis is context-insensitive: a function's results are shared
// nodes, and parameters accumulate the arguments of every static call
// site. Solving is monotone, so the fixpoint is independent of constraint
// order; everything that feeds reported output is additionally kept in
// deterministic order so two runs over the same tree print the same bytes.

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// ---- solver core (AST-free) ----

// ptNode identifies a points-to node: a variable, temporary, or slot.
type ptNode int32

// ptObj identifies an abstract object: an allocation site or storage cell.
type ptObj int32

const ptNone ptNode = -1

type ptObjKind uint8

const (
	// objAlloc is a composite literal, new, make, or function literal.
	objAlloc ptObjKind = iota
	// objVar is the addressable storage of a struct- or array-typed local.
	objVar
	// objField is the storage of a struct-valued field or element,
	// materialized lazily when the field is first touched.
	objField
	// objEpoch is a fresh value minted at an ownership-transfer point: a
	// channel receive or a blessed (//hypatia:transfer, pure-type) call.
	objEpoch
	// objOpaque is the retention bucket of a call the solver cannot see
	// into; arguments live in its "[]" slot.
	objOpaque
	// objGlobal is the storage of a package-level variable.
	objGlobal
	// objCell is the address cell created by &v or &x.f for a non-struct
	// target; its "*" slot mirrors the target's contents.
	objCell
	// objFunc is a function or bound-method value.
	objFunc
)

// ptFieldCons is a pending load (dst ⊇ o.field for o ∈ pts(base)) or store
// (o.field ⊇ src) constraint attached to a base node.
type ptFieldCons struct {
	field string
	node  ptNode // dst for loads, src for stores
	fvar  *types.Var
}

// ptFieldRef names one trackable field of a struct type.
type ptFieldRef struct {
	name string
	fvar *types.Var
}

// ptStructCons is the `*p = y` constraint for struct pointees: for every
// object p points at, each field slot absorbs the corresponding field of y.
type ptStructCons struct {
	src    ptNode
	fields []ptFieldRef
}

type ptNodeState struct {
	label   string
	pts     map[ptObj]struct{}
	ptsList []ptObj // insertion order; complete once solve() returns
	copies  []ptNode
	loads   []ptFieldCons
	stores  []ptFieldCons
	scopies []ptStructCons
}

type ptObjState struct {
	kind      ptObjKind
	typ       types.Type
	pos       token.Pos
	label     string
	slots     map[string]ptNode
	slotNames []string // insertion order; sort before deterministic walks
	slotVar   map[string]*types.Var
	// bodyKnown marks function values whose body the generator walked.
	bodyKnown bool
}

type ptWork struct {
	n ptNode
	o ptObj
}

// ptSolver is the inclusion-constraint graph and its worklist.
type ptSolver struct {
	nodes []ptNodeState
	objs  []ptObjState
	work  []ptWork
}

func newPtsSolver() *ptSolver { return &ptSolver{} }

func (s *ptSolver) newNode(label string) ptNode {
	s.nodes = append(s.nodes, ptNodeState{label: label})
	return ptNode(len(s.nodes) - 1)
}

func (s *ptSolver) newObject(kind ptObjKind, typ types.Type, pos token.Pos, label string) ptObj {
	s.objs = append(s.objs, ptObjState{kind: kind, typ: typ, pos: pos, label: label})
	return ptObj(len(s.objs) - 1)
}

// addObj seeds o into the points-to set of n — the address-of constraint.
func (s *ptSolver) addObj(n ptNode, o ptObj) {
	ns := &s.nodes[n]
	if ns.pts == nil {
		ns.pts = map[ptObj]struct{}{}
	}
	if _, ok := ns.pts[o]; ok {
		return
	}
	ns.pts[o] = struct{}{}
	ns.ptsList = append(ns.ptsList, o)
	s.work = append(s.work, ptWork{n, o})
}

// addCopy adds dst ⊇ src and replays src's current points-to set.
func (s *ptSolver) addCopy(src, dst ptNode) {
	if src == dst || src == ptNone || dst == ptNone {
		return
	}
	s.nodes[src].copies = append(s.nodes[src].copies, dst)
	for _, o := range s.nodes[src].ptsList {
		s.addObj(dst, o)
	}
}

// addLoad adds dst ⊇ o.field for every o ∈ pts(base), now and later.
func (s *ptSolver) addLoad(base ptNode, field string, dst ptNode, fvar *types.Var) {
	if base == ptNone || dst == ptNone {
		return
	}
	s.nodes[base].loads = append(s.nodes[base].loads, ptFieldCons{field, dst, fvar})
	list := s.nodes[base].ptsList
	for _, o := range list {
		s.addCopy(s.slotNode(o, field, fvar), dst)
	}
}

// addStore adds o.field ⊇ src for every o ∈ pts(base), now and later.
func (s *ptSolver) addStore(base ptNode, field string, src ptNode, fvar *types.Var) {
	if base == ptNone || src == ptNone {
		return
	}
	s.nodes[base].stores = append(s.nodes[base].stores, ptFieldCons{field, src, fvar})
	list := s.nodes[base].ptsList
	for _, o := range list {
		s.addCopy(src, s.slotNode(o, field, fvar))
	}
}

// addStructCopy models `*p = y` for a struct pointee: every field slot of
// every object base points at absorbs the matching field of src.
func (s *ptSolver) addStructCopy(base, src ptNode, fields []ptFieldRef) {
	if base == ptNone || src == ptNone || len(fields) == 0 {
		return
	}
	s.nodes[base].scopies = append(s.nodes[base].scopies, ptStructCons{src: src, fields: fields})
	list := s.nodes[base].ptsList
	for _, o := range list {
		s.fireStructCopy(o, src, fields)
	}
}

func (s *ptSolver) fireStructCopy(o ptObj, src ptNode, fields []ptFieldRef) {
	for _, f := range fields {
		sn := s.slotNode(o, f.name, f.fvar)
		s.addLoad(src, f.name, sn, f.fvar)
	}
}

// slotNode returns (creating lazily) the node holding the contents of one
// named slot of o. Struct-valued fields and elements materialize a child
// storage object on first touch, so value-struct nesting stays addressable.
func (s *ptSolver) slotNode(o ptObj, field string, fvar *types.Var) ptNode {
	if s.objs[o].slots == nil {
		s.objs[o].slots = map[string]ptNode{}
		s.objs[o].slotVar = map[string]*types.Var{}
	}
	if n, ok := s.objs[o].slots[field]; ok {
		if fvar != nil && s.objs[o].slotVar[field] == nil {
			s.objs[o].slotVar[field] = fvar
		}
		return n
	}
	n := s.newNode(s.objs[o].label + "." + field)
	s.objs[o].slots[field] = n
	s.objs[o].slotNames = append(s.objs[o].slotNames, field)
	if fvar != nil {
		s.objs[o].slotVar[field] = fvar
	}
	if et := slotValueType(s.objs[o].typ, field); et != nil && structish(et) {
		label := "field " + field + " of " + s.objs[o].label
		if field == "[]" {
			label = "element of " + s.objs[o].label
		}
		child := s.newObject(objField, et, s.objs[o].pos, label)
		s.addObj(n, child)
	}
	return n
}

// solve runs the worklist to fixpoint. The result is order-independent;
// only discovery order (ptsList) varies with constraint order, and the
// generator emits constraints deterministically.
func (s *ptSolver) solve() {
	for len(s.work) > 0 {
		w := s.work[len(s.work)-1]
		s.work = s.work[:len(s.work)-1]
		copies := s.nodes[w.n].copies
		for _, d := range copies {
			s.addObj(d, w.o)
		}
		loads := s.nodes[w.n].loads
		for _, c := range loads {
			s.addCopy(s.slotNode(w.o, c.field, c.fvar), c.node)
		}
		stores := s.nodes[w.n].stores
		for _, c := range stores {
			s.addCopy(c.node, s.slotNode(w.o, c.field, c.fvar))
		}
		scopies := s.nodes[w.n].scopies
		for _, c := range scopies {
			s.fireStructCopy(w.o, c.src, c.fields)
		}
	}
}

// pts returns the points-to set of n in ascending object order.
func (s *ptSolver) pts(n ptNode) []ptObj {
	if n == ptNone || s.nodes[n].ptsList == nil {
		return nil
	}
	out := append([]ptObj(nil), s.nodes[n].ptsList...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// sortedSlots returns o's slot names in lexical order.
func (s *ptSolver) sortedSlots(o ptObj) []string {
	names := append([]string(nil), s.objs[o].slotNames...)
	sort.Strings(names)
	return names
}

// ---- type helpers ----

// derefAll strips pointer layers (and aliases) off t.
func derefAll(t types.Type) types.Type {
	for t != nil {
		u, ok := t.Underlying().(*types.Pointer)
		if !ok {
			return t
		}
		t = u.Elem()
	}
	return t
}

// structish reports whether values of t are addressable aggregates that
// need a storage object (structs and arrays).
func structish(t types.Type) bool {
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Struct, *types.Array:
		return true
	}
	return false
}

// trackable reports whether the analysis models values of t at all.
func trackable(t types.Type) bool {
	return t != nil && (pointerish(t) || structish(t))
}

// slotValueType resolves the value type stored in one slot of an object of
// type t: a struct field by name, or "[]" for slice/array/map elements.
func slotValueType(t types.Type, field string) types.Type {
	t = derefAll(t)
	if t == nil {
		return nil
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if u.Field(i).Name() == field {
				return u.Field(i).Type()
			}
		}
	case *types.Slice:
		if field == "[]" {
			return u.Elem()
		}
	case *types.Array:
		if field == "[]" {
			return u.Elem()
		}
	case *types.Map:
		if field == "[]" {
			return u.Elem()
		}
	}
	return nil
}

// structFieldRefs lists the trackable fields of a struct pointee.
func structFieldRefs(t types.Type) []ptFieldRef {
	t = derefAll(t)
	if t == nil {
		return nil
	}
	u, ok := t.Underlying().(*types.Struct)
	if !ok {
		return nil
	}
	var out []ptFieldRef
	for i := 0; i < u.NumFields(); i++ {
		f := u.Field(i)
		if trackable(f.Type()) {
			out = append(out, ptFieldRef{name: f.Name(), fvar: f})
		}
	}
	return out
}

// ptTypeLabel renders a type for escape messages: pkg.Name for named types,
// a structural kind otherwise.
func ptTypeLabel(t types.Type) string {
	if t == nil {
		return "value"
	}
	if pkgPath, name, ok := namedType(t); ok {
		short := pkgPath
		if i := strings.LastIndex(short, "/"); i >= 0 {
			short = short[i+1:]
		}
		if short != "" {
			return short + "." + name
		}
		return name
	}
	switch derefAll(t).Underlying().(type) {
	case *types.Struct:
		return "struct"
	case *types.Slice:
		return "slice"
	case *types.Map:
		return "map"
	case *types.Chan:
		return "channel"
	case *types.Signature:
		return "func"
	}
	return "value"
}

// ---- constraint generation ----

// ptSeed is one goroutine launch: the set of nodes whose contents become
// reachable from the new goroutine.
type ptSeed struct {
	pos    token.Pos
	p      *pkg
	inLoop bool
	nodes  []ptNode
}

// ptGlobalStore is one assignment whose destination is rooted in a
// package-level variable.
type ptGlobalStore struct {
	pos   token.Pos
	p     *pkg
	node  ptNode
	vname string
}

// ptDynCall is a call the solver could not resolve to a body: confined
// values flowing into it lose their ownership proof.
type ptDynCall struct {
	pos   token.Pos
	p     *pkg
	fun   ptNode
	args  []ptNode
	label string
}

type posRange struct{ lo, hi token.Pos }

// ptGen translates the cone's ASTs into solver constraints.
type ptGen struct {
	s      *ptSolver
	cg     *callGraph
	an     *effectAnalysis
	conf   *confIndex
	module string
	fset   *token.FileSet

	varNode map[*types.Var]ptNode
	funcObj map[*types.Func]ptObj
	cellOf  map[*types.Var]ptObj
	litObj  map[*ast.FuncLit]ptObj
	results map[cgKey][]ptNode
	globals []*types.Var

	seeds        []ptSeed
	globalStores []ptGlobalStore
	dynCalls     []ptDynCall

	// current function context
	p     *pkg
	info  *types.Info
	fn    cgKey
	loops []posRange
}

// genConstraints builds the constraint graph for one dependency cone. The
// cone must be sorted by package path; functions are visited in the call
// graph's file order, so generation is deterministic.
func genConstraints(cone []*pkg, cg *callGraph, an *effectAnalysis, conf *confIndex, module string) *ptGen {
	g := &ptGen{
		s:       newPtsSolver(),
		cg:      cg,
		an:      an,
		conf:    conf,
		module:  module,
		fset:    cone[0].fset,
		varNode: map[*types.Var]ptNode{},
		funcObj: map[*types.Func]ptObj{},
		cellOf:  map[*types.Var]ptObj{},
		litObj:  map[*ast.FuncLit]ptObj{},
		results: map[cgKey][]ptNode{},
	}
	for _, p := range cone {
		g.p, g.info = p, p.info
		g.fn = nil
		g.loops = nil
		for _, f := range p.files {
			for _, d := range f.Decls {
				gd, ok := d.(*ast.GenDecl)
				if !ok || gd.Tok != token.VAR {
					continue
				}
				for _, spec := range gd.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok {
						g.genValueSpec(vs)
					}
				}
			}
		}
	}
	for _, p := range cone {
		for _, k := range cg.funcsIn[p] {
			g.genFunc(p, k)
		}
	}
	return g
}

// posOf renders a token.Pos as file:line for labels and messages.
func (g *ptGen) posOf(pos token.Pos) string {
	p := g.fset.Position(pos)
	return shortFile(p.Filename) + ":" + itoa(p.Line)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// ensureVar returns the node of a variable, creating storage for struct-
// and array-typed variables and registering package-level ones.
func (g *ptGen) ensureVar(v *types.Var) ptNode {
	if n, ok := g.varNode[v]; ok {
		return n
	}
	if !trackable(v.Type()) {
		g.varNode[v] = ptNone
		return ptNone
	}
	n := g.s.newNode(v.Name())
	g.varNode[v] = n
	kind := objVar
	if isPkgLevelVar(v) {
		kind = objGlobal
		g.globals = append(g.globals, v)
	}
	if structish(v.Type()) {
		o := g.s.newObject(kind, v.Type(), v.Pos(), ptTypeLabel(v.Type())+" variable "+v.Name())
		g.s.addObj(n, o)
	} else if kind == objGlobal {
		// Non-aggregate globals still need an identity so objects stored
		// into them are discoverable from the package-level sweep.
		g.globals = g.globals[:len(g.globals)-1]
		g.globals = append(g.globals, v)
	}
	return n
}

// varOf resolves an identifier to its variable via Uses or Defs.
func (g *ptGen) varOf(id *ast.Ident) *types.Var {
	if v, ok := g.info.Uses[id].(*types.Var); ok {
		return v
	}
	if v, ok := g.info.Defs[id].(*types.Var); ok {
		return v
	}
	return nil
}

// ensureResults returns the shared result nodes of a callee, tying named
// result variables to them.
func (g *ptGen) ensureResults(k cgKey, sig *types.Signature) []ptNode {
	if rs, ok := g.results[k]; ok {
		return rs
	}
	n := sig.Results().Len()
	rs := make([]ptNode, n)
	for i := 0; i < n; i++ {
		rv := sig.Results().At(i)
		if !trackable(rv.Type()) {
			rs[i] = ptNone
			continue
		}
		rs[i] = g.s.newNode("result")
		if rv.Name() != "" {
			g.s.addCopy(g.ensureVar(rv), rs[i])
		}
	}
	g.results[k] = rs
	return rs
}

// sigOf returns the signature of a call-graph node.
func (g *ptGen) sigOf(k cgKey) *types.Signature {
	switch k := k.(type) {
	case *types.Func:
		if sig, ok := k.Type().(*types.Signature); ok {
			return sig
		}
	case *ast.FuncLit:
		if sig, ok := g.cg.pkgOf[k].info.TypeOf(k).(*types.Signature); ok {
			return sig
		}
	}
	return nil
}

// genValueSpec handles a package-level var declaration.
func (g *ptGen) genValueSpec(vs *ast.ValueSpec) {
	if len(vs.Values) == 0 {
		for _, name := range vs.Names {
			if v := g.varOf(name); v != nil {
				g.ensureVar(v)
			}
		}
		return
	}
	if len(vs.Names) > 1 && len(vs.Values) == 1 {
		rs := g.evalMulti(vs.Values[0], len(vs.Names))
		for i, name := range vs.Names {
			g.assignIdent(name, rs[i], name.Pos())
		}
		return
	}
	for i, name := range vs.Names {
		if i < len(vs.Values) {
			g.assignIdent(name, g.eval(vs.Values[i]), name.Pos())
		}
	}
}

// genFunc generates constraints for one call-graph node's body.
func (g *ptGen) genFunc(p *pkg, k cgKey) {
	body := g.cg.body[k]
	if body == nil {
		return
	}
	g.p, g.info, g.fn = p, p.info, k
	g.loops = g.loops[:0]
	ptBodyScan(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt:
			g.loops = append(g.loops, posRange{n.Pos(), n.End()})
		case *ast.RangeStmt:
			g.loops = append(g.loops, posRange{n.Pos(), n.End()})
		}
		return true
	})
	if sig := g.sigOf(k); sig != nil && sig.Results().Len() > 0 {
		g.ensureResults(k, sig)
	}
	for _, st := range body.List {
		g.genStmt(st)
	}
}

// ptBodyScan walks a body without descending into nested function
// literals, which are separate call-graph nodes.
func ptBodyScan(body *ast.BlockStmt, f func(ast.Node) bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n == nil {
			return false
		}
		return f(n)
	})
}

func (g *ptGen) inLoop(pos token.Pos) bool {
	for _, r := range g.loops {
		if r.lo <= pos && pos <= r.hi {
			return true
		}
	}
	return false
}

// ---- statements ----

func (g *ptGen) genStmt(st ast.Stmt) {
	switch st := st.(type) {
	case nil:
	case *ast.AssignStmt:
		g.genAssign(st)
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok && gd.Tok == token.VAR {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					g.genLocalValueSpec(vs)
				}
			}
		}
	case *ast.ExprStmt:
		g.eval(st.X)
	case *ast.GoStmt:
		g.genGo(st)
	case *ast.DeferStmt:
		g.evalCall(st.Call)
	case *ast.ReturnStmt:
		g.genReturn(st)
	case *ast.SendStmt:
		// Ownership transfer: the value leaves this goroutine's world.
		g.eval(st.Chan)
		g.eval(st.Value)
	case *ast.IncDecStmt:
		g.eval(st.X)
	case *ast.BlockStmt:
		for _, s := range st.List {
			g.genStmt(s)
		}
	case *ast.IfStmt:
		g.genStmt(st.Init)
		g.eval(st.Cond)
		g.genStmt(st.Body)
		g.genStmt(st.Else)
	case *ast.ForStmt:
		g.genStmt(st.Init)
		g.eval(st.Cond)
		g.genStmt(st.Post)
		g.genStmt(st.Body)
	case *ast.RangeStmt:
		g.genRange(st)
	case *ast.SwitchStmt:
		g.genStmt(st.Init)
		g.eval(st.Tag)
		g.genStmt(st.Body)
	case *ast.TypeSwitchStmt:
		g.genStmt(st.Init)
		g.genStmt(st.Assign)
		g.genStmt(st.Body)
	case *ast.SelectStmt:
		g.genStmt(st.Body)
	case *ast.CaseClause:
		for _, e := range st.List {
			g.eval(e)
		}
		for _, s := range st.Body {
			g.genStmt(s)
		}
	case *ast.CommClause:
		g.genStmt(st.Comm)
		for _, s := range st.Body {
			g.genStmt(s)
		}
	case *ast.LabeledStmt:
		g.genStmt(st.Stmt)
	}
}

func (g *ptGen) genLocalValueSpec(vs *ast.ValueSpec) {
	if len(vs.Values) == 0 {
		for _, name := range vs.Names {
			if v := g.varOf(name); v != nil {
				g.ensureVar(v)
			}
		}
		return
	}
	if len(vs.Names) > 1 && len(vs.Values) == 1 {
		rs := g.evalMulti(vs.Values[0], len(vs.Names))
		for i, name := range vs.Names {
			g.assignIdent(name, rs[i], name.Pos())
		}
		return
	}
	for i, name := range vs.Names {
		if i < len(vs.Values) {
			g.assignIdent(name, g.eval(vs.Values[i]), name.Pos())
		}
	}
}

func (g *ptGen) genAssign(st *ast.AssignStmt) {
	if len(st.Lhs) > 1 && len(st.Rhs) == 1 {
		rs := g.evalMulti(st.Rhs[0], len(st.Lhs))
		for i, lhs := range st.Lhs {
			g.assign(lhs, rs[i], st.TokPos)
		}
		return
	}
	for i, lhs := range st.Lhs {
		if i < len(st.Rhs) {
			g.assign(lhs, g.eval(st.Rhs[i]), st.TokPos)
		}
	}
}

func (g *ptGen) genReturn(st *ast.ReturnStmt) {
	rs := g.results[g.fn]
	if len(st.Results) == 0 {
		return // named results already tied by ensureResults
	}
	if len(st.Results) == 1 && len(rs) > 1 {
		vals := g.evalMulti(st.Results[0], len(rs))
		for i, r := range rs {
			if i < len(vals) {
				g.s.addCopy(vals[i], r)
			}
		}
		return
	}
	for i, e := range st.Results {
		v := g.eval(e)
		if i < len(rs) {
			g.s.addCopy(v, rs[i])
		}
	}
}

func (g *ptGen) genRange(st *ast.RangeStmt) {
	base := g.eval(st.X)
	t := g.info.TypeOf(st.X)
	var keyN, valN ptNode = ptNone, ptNone
	if t != nil {
		switch derefAll(t).Underlying().(type) {
		case *types.Slice, *types.Array, *types.Map:
			if base != ptNone {
				valN = g.s.newNode("range")
				g.s.addLoad(base, "[]", valN, nil)
			}
		case *types.Chan:
			// Receive: ownership transfer mints a fresh epoch value.
			if et := g.info.TypeOf(st.Key); trackable(et) {
				keyN = g.epochNode(et, st.Pos(), "received from channel")
			}
		}
	}
	if st.Key != nil && keyN != ptNone {
		g.assign(st.Key, keyN, st.Pos())
	}
	if st.Value != nil && valN != ptNone {
		g.assign(st.Value, valN, st.Pos())
	}
	g.genStmt(st.Body)
}

// epochNode mints a fresh transfer-point object of type t.
func (g *ptGen) epochNode(t types.Type, pos token.Pos, what string) ptNode {
	n := g.s.newNode("epoch")
	o := g.s.newObject(objEpoch, t, pos, ptTypeLabel(t)+" "+what)
	g.s.addObj(n, o)
	return n
}

// ---- assignment targets ----

func (g *ptGen) assignIdent(id *ast.Ident, val ptNode, pos token.Pos) {
	if id.Name == "_" {
		return
	}
	v := g.varOf(id)
	if v == nil || !trackable(v.Type()) {
		return
	}
	n := g.ensureVar(v)
	g.s.addCopy(val, n)
	if isPkgLevelVar(v) && val != ptNone {
		g.globalStores = append(g.globalStores, ptGlobalStore{pos: pos, p: g.p, node: val, vname: v.Name()})
	}
}

func (g *ptGen) assign(lhs ast.Expr, val ptNode, pos token.Pos) {
	switch lhs := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		g.assignIdent(lhs, val, pos)
	case *ast.SelectorExpr:
		if v, ok := g.info.Uses[lhs.Sel].(*types.Var); ok && isPkgLevelVar(v) {
			// Qualified write to another package's variable.
			if trackable(v.Type()) {
				g.s.addCopy(val, g.ensureVar(v))
				if val != ptNone {
					g.globalStores = append(g.globalStores, ptGlobalStore{pos: pos, p: g.p, node: val, vname: v.Name()})
				}
			}
			return
		}
		base := g.eval(lhs.X)
		fvar, _ := g.info.Uses[lhs.Sel].(*types.Var)
		g.s.addStore(base, lhs.Sel.Name, val, fvar)
		g.recordGlobalRoot(lhs, val, pos)
	case *ast.IndexExpr:
		base := g.eval(lhs.X)
		g.eval(lhs.Index)
		g.s.addStore(base, "[]", val, nil)
		g.recordGlobalRoot(lhs, val, pos)
	case *ast.StarExpr:
		base := g.eval(lhs.X)
		pt := g.info.TypeOf(lhs.X)
		if pt != nil {
			if elem := derefAll(pt); structish(elem) {
				g.s.addStructCopy(base, val, structFieldRefs(elem))
			} else {
				g.s.addStore(base, "*", val, nil)
			}
		}
		g.recordGlobalRoot(lhs, val, pos)
	}
}

// recordGlobalRoot records a store whose destination is rooted in a
// package-level variable, so escape.go can treat it as a publication site.
func (g *ptGen) recordGlobalRoot(lhs ast.Expr, val ptNode, pos token.Pos) {
	if val == ptNone {
		return
	}
	root, _ := writeRoot(g.info, lhs)
	id, ok := root.(*ast.Ident)
	if !ok {
		if sel, isSel := root.(*ast.SelectorExpr); isSel {
			id = sel.Sel
		} else {
			return
		}
	}
	if v, ok := g.info.Uses[id].(*types.Var); ok && isPkgLevelVar(v) {
		g.globalStores = append(g.globalStores, ptGlobalStore{pos: pos, p: g.p, node: val, vname: v.Name()})
	}
}

// ---- expressions ----

// eval returns the node holding an expression's value, or ptNone when the
// value cannot carry references.
func (g *ptGen) eval(e ast.Expr) ptNode {
	if e == nil {
		return ptNone
	}
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if v := g.varOf(e); v != nil {
			return g.ensureVar(v)
		}
		if fn, ok := g.info.Uses[e].(*types.Func); ok {
			return g.funcValue(fn, e.Pos())
		}
		return ptNone
	case *ast.SelectorExpr:
		return g.evalSelector(e)
	case *ast.StarExpr:
		base := g.eval(e.X)
		pt := g.info.TypeOf(e.X)
		if pt == nil {
			return ptNone
		}
		if elem := derefAll(pt); structish(elem) {
			return base // struct values are their storage objects
		}
		n := g.s.newNode("deref")
		g.s.addLoad(base, "*", n, nil)
		return n
	case *ast.UnaryExpr:
		return g.evalUnary(e)
	case *ast.CompositeLit:
		return g.evalComposite(e)
	case *ast.CallExpr:
		rs := g.evalCall(e)
		if len(rs) > 0 {
			return rs[0]
		}
		return ptNone
	case *ast.FuncLit:
		return g.evalFuncLit(e)
	case *ast.IndexExpr:
		return g.evalIndex(e)
	case *ast.IndexListExpr:
		return g.eval(e.X)
	case *ast.SliceExpr:
		return g.eval(e.X)
	case *ast.TypeAssertExpr:
		return g.eval(e.X)
	case *ast.BinaryExpr:
		g.eval(e.X)
		g.eval(e.Y)
		return ptNone
	case *ast.KeyValueExpr:
		return g.eval(e.Value)
	}
	return ptNone
}

// evalMulti evaluates a single expression producing n values (call, map
// index with ok, receive with ok, type assert with ok).
func (g *ptGen) evalMulti(e ast.Expr, n int) []ptNode {
	out := make([]ptNode, n)
	for i := range out {
		out[i] = ptNone
	}
	switch e := ast.Unparen(e).(type) {
	case *ast.CallExpr:
		rs := g.evalCall(e)
		copy(out, rs)
	default:
		out[0] = g.eval(e)
	}
	return out
}

func (g *ptGen) evalSelector(e *ast.SelectorExpr) ptNode {
	switch obj := g.info.Uses[e.Sel].(type) {
	case *types.Var:
		if isPkgLevelVar(obj) {
			return g.ensureVar(obj)
		}
		if obj.IsField() {
			base := g.eval(e.X)
			if base == ptNone {
				return ptNone
			}
			if !trackable(obj.Type()) {
				return ptNone
			}
			n := g.s.newNode(e.Sel.Name)
			g.s.addLoad(base, e.Sel.Name, n, obj)
			return n
		}
		return g.ensureVar(obj)
	case *types.Func:
		// Method value or qualified function reference.
		if sel, ok := g.info.Selections[e]; ok && sel.Kind() == types.MethodVal {
			recv := g.eval(e.X)
			n := g.s.newNode("method value")
			o := g.s.newObject(objFunc, g.info.TypeOf(e), e.Pos(), "method value "+e.Sel.Name)
			g.s.addObj(n, o)
			g.s.addStore(n, "recv", recv, nil)
			return n
		}
		return g.funcValue(obj, e.Pos())
	}
	return ptNone
}

func (g *ptGen) funcValue(fn *types.Func, pos token.Pos) ptNode {
	o, ok := g.funcObj[fn]
	if !ok {
		o = g.s.newObject(objFunc, fn.Type(), fn.Pos(), "func "+fn.Name())
		g.s.objs[o].bodyKnown = g.cg.body[fn] != nil
		g.funcObj[fn] = o
	}
	n := g.s.newNode("func value")
	g.s.addObj(n, o)
	return n
}

func (g *ptGen) evalUnary(e *ast.UnaryExpr) ptNode {
	switch e.Op {
	case token.AND:
		return g.evalAddr(e.X, e.Pos())
	case token.ARROW:
		g.eval(e.X)
		t := g.info.TypeOf(e)
		if !trackable(t) {
			return ptNone
		}
		return g.epochNode(t, e.Pos(), "received from channel")
	default:
		g.eval(e.X)
		return ptNone
	}
}

func (g *ptGen) evalAddr(x ast.Expr, pos token.Pos) ptNode {
	switch x := ast.Unparen(x).(type) {
	case *ast.Ident:
		v := g.varOf(x)
		if v == nil {
			return ptNone
		}
		if structish(v.Type()) {
			return g.ensureVar(v) // storage objects double as the address
		}
		if !trackable(v.Type()) && !isPkgLevelVar(v) {
			// Address of an untracked scalar: nothing to model.
			if !trackable(v.Type()) {
				return ptNone
			}
		}
		if !trackable(v.Type()) {
			return ptNone
		}
		o, ok := g.cellOf[v]
		if !ok {
			o = g.s.newObject(objCell, types.NewPointer(v.Type()), v.Pos(), "address of "+v.Name())
			g.cellOf[v] = o
			vn := g.ensureVar(v)
			sn := g.s.slotNode(o, "*", nil)
			g.s.addCopy(vn, sn)
			g.s.addCopy(sn, vn)
		}
		n := g.s.newNode("addr")
		g.s.addObj(n, o)
		return n
	case *ast.SelectorExpr:
		if v, ok := g.info.Uses[x.Sel].(*types.Var); ok && v.IsField() {
			ft := v.Type()
			base := g.eval(x.X)
			if base == ptNone {
				return ptNone
			}
			if structish(ft) {
				n := g.s.newNode("addr")
				g.s.addLoad(base, x.Sel.Name, n, v)
				return n
			}
			if !trackable(ft) {
				return ptNone
			}
			o := g.s.newObject(objCell, types.NewPointer(ft), pos, "address of field "+x.Sel.Name)
			sn := g.s.slotNode(o, "*", nil)
			g.s.addLoad(base, x.Sel.Name, sn, v)
			g.s.addStore(base, x.Sel.Name, sn, v)
			n := g.s.newNode("addr")
			g.s.addObj(n, o)
			return n
		}
		return g.eval(x) // &pkg.Global etc.
	case *ast.IndexExpr:
		base := g.eval(x.X)
		g.eval(x.Index)
		if base == ptNone {
			return ptNone
		}
		et := g.info.TypeOf(x)
		if pt, ok := et.(*types.Pointer); ok && structish(pt.Elem()) {
			n := g.s.newNode("addr")
			g.s.addLoad(base, "[]", n, nil)
			return n
		}
		o := g.s.newObject(objCell, et, pos, "address of element")
		sn := g.s.slotNode(o, "*", nil)
		g.s.addLoad(base, "[]", sn, nil)
		g.s.addStore(base, "[]", sn, nil)
		n := g.s.newNode("addr")
		g.s.addObj(n, o)
		return n
	case *ast.CompositeLit:
		return g.evalComposite(x)
	case *ast.StarExpr:
		return g.eval(x.X) // &*p == p
	}
	g.eval(x)
	return ptNone
}

func (g *ptGen) evalComposite(e *ast.CompositeLit) ptNode {
	t := g.info.TypeOf(e)
	o := g.s.newObject(objAlloc, t, e.Pos(), ptTypeLabel(t)+" value")
	n := g.s.newNode("lit")
	g.s.addObj(n, o)
	fields := structFieldRefs(t)
	for i, elt := range e.Elts {
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			val := g.eval(kv.Value)
			if id, ok := kv.Key.(*ast.Ident); ok {
				if fv, isField := g.info.Uses[id].(*types.Var); isField && fv.IsField() {
					g.s.addStore(n, id.Name, val, fv)
					continue
				}
			}
			g.eval(kv.Key)
			g.s.addStore(n, "[]", val, nil)
			continue
		}
		val := g.eval(elt)
		if i < len(fields) && structishOrStructLit(t) {
			// Positional struct literal: fields in declaration order. The
			// fields list skips untrackable ones, so match by index over
			// the full field list instead.
			if fv := structFieldAt(t, i); fv != nil {
				g.s.addStore(n, fv.Name(), val, fv)
				continue
			}
		}
		g.s.addStore(n, "[]", val, nil)
	}
	return n
}

func structishOrStructLit(t types.Type) bool {
	t = derefAll(t)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Struct)
	return ok
}

func structFieldAt(t types.Type, i int) *types.Var {
	t = derefAll(t)
	if t == nil {
		return nil
	}
	u, ok := t.Underlying().(*types.Struct)
	if !ok || i >= u.NumFields() {
		return nil
	}
	f := u.Field(i)
	if !trackable(f.Type()) {
		return nil
	}
	return f
}

func (g *ptGen) evalFuncLit(e *ast.FuncLit) ptNode {
	o, ok := g.litObj[e]
	if !ok {
		o = g.s.newObject(objAlloc, g.info.TypeOf(e), e.Pos(),
			"func literal")
		g.s.objs[o].bodyKnown = true
		g.litObj[e] = o
		for _, fv := range g.freeVars(e) {
			sn := g.s.slotNode(o, "capture "+fv.Name(), nil)
			g.s.addCopy(g.ensureVar(fv), sn)
		}
	}
	n := g.s.newNode("closure")
	g.s.addObj(n, o)
	return n
}

// freeVars lists the trackable variables a literal captures from enclosing
// scopes, in source order.
func (g *ptGen) freeVars(lit *ast.FuncLit) []*types.Var {
	seen := map[*types.Var]bool{}
	var out []*types.Var
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := g.info.Uses[id].(*types.Var)
		if !ok || v.IsField() || isPkgLevelVar(v) || seen[v] {
			return true
		}
		if v.Pos() >= lit.Pos() && v.Pos() <= lit.End() {
			return true // declared inside the literal
		}
		if !trackable(v.Type()) {
			return true
		}
		seen[v] = true
		out = append(out, v)
		return true
	})
	return out
}

func (g *ptGen) evalIndex(e *ast.IndexExpr) ptNode {
	// Generic instantiation: evaluate the function operand.
	if tv, ok := g.info.Types[e.X]; ok {
		if _, isSig := tv.Type.Underlying().(*types.Signature); isSig {
			return g.eval(e.X)
		}
	}
	base := g.eval(e.X)
	g.eval(e.Index)
	if base == ptNone || !trackable(g.info.TypeOf(e)) {
		return ptNone
	}
	n := g.s.newNode("elem")
	g.s.addLoad(base, "[]", n, nil)
	return n
}

// ---- calls ----

// callInfo captures what a goroutine launch needs to know about a call.
type callInfo struct {
	args []ptNode // evaluated argument values (incl. receiver)
	fun  ptNode   // callee value for dynamic calls, ptNone otherwise
}

func (g *ptGen) evalCall(call *ast.CallExpr) []ptNode {
	rs, _ := g.evalCallInfo(call)
	return rs
}

func (g *ptGen) evalCallInfo(call *ast.CallExpr) ([]ptNode, callInfo) {
	// Type conversion: the value passes through unchanged.
	if tv, ok := g.info.Types[call.Fun]; ok && tv.IsType() {
		var v ptNode = ptNone
		if len(call.Args) == 1 {
			v = g.eval(call.Args[0])
		}
		return []ptNode{v}, callInfo{fun: ptNone}
	}
	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isB := g.info.Uses[id].(*types.Builtin); isB {
			return g.evalBuiltin(id.Name, call), callInfo{fun: ptNone}
		}
	}
	// Immediately invoked function literal: bind like a static call.
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		litNode := g.evalFuncLit(lit)
		sig := g.sigOf(lit)
		args := g.bindArgs(call, sig, 0)
		return g.ensureResultsFor(lit, sig), callInfo{args: args, fun: litNode}
	}

	fn := resolveCallee(g.info, call)
	if fn != nil {
		sig, _ := fn.Type().(*types.Signature)
		if sig == nil {
			return nil, callInfo{fun: ptNone}
		}
		// Ownership-transfer whitelist: arguments and receiver are
		// consumed; results are fresh epoch values.
		if g.conf != nil && g.conf.transfer[fn] {
			args := g.evalArgsOnly(call, sig)
			return g.epochResults(sig, call.Pos(), "obtained from "+fn.Name()), callInfo{args: args, fun: ptNone}
		}
		if isModuleFn(fn, g.module) && g.cg.body[fn] != nil {
			args := g.bindCall(call, fn, sig)
			return g.ensureResultsFor(fn, sig), callInfo{args: args, fun: ptNone}
		}
		if isModuleFn(fn, g.module) || fn.Pkg() == nil {
			// Module-local interface method or bodyless declaration:
			// retention plus a dynamic-call record for escape.go —
			// unless the interface carries the //hypatia:pure contract,
			// whose no-retention guarantee extends to ownership.
			args := g.evalArgsOnly(call, sig)
			if g.pureIfaceMethod(fn) {
				return g.epochResults(sig, call.Pos(), "returned by "+fn.Name()), callInfo{args: args, fun: ptNone}
			}
			rs := g.opaqueResults(call, sig, args, "call to "+fn.Name())
			g.dynCalls = append(g.dynCalls, ptDynCall{
				pos: call.Pos(), p: g.p, fun: ptNone, args: args,
				label: "dynamic call to " + fn.Name(),
			})
			return rs, callInfo{args: args, fun: ptNone}
		}
		// Out-of-module (stdlib) call: retain arguments, pass them through.
		args := g.evalArgsOnly(call, sig)
		return g.opaqueResults(call, sig, args, "call to "+fn.Name()), callInfo{args: args, fun: ptNone}
	}

	// Dynamic call through a function value.
	funNode := g.eval(call.Fun)
	sig, _ := g.info.TypeOf(call.Fun).Underlying().(*types.Signature)
	var args []ptNode
	if sig != nil {
		args = g.evalArgsOnly(call, sig)
	} else {
		for _, a := range call.Args {
			args = append(args, g.eval(a))
		}
	}
	// Blessed dynamic dispatch: //hypatia:pure named function types
	// guarantee no retention, so results are fresh epochs.
	if named, ok := types.Unalias(g.info.TypeOf(call.Fun)).(*types.Named); ok && g.an.funcTypes[named.Obj()] {
		if sig != nil {
			return g.epochResults(sig, call.Pos(), "returned by "+named.Obj().Name()+" call"), callInfo{args: args, fun: funNode}
		}
		return nil, callInfo{args: args, fun: funNode}
	}
	var rs []ptNode
	if sig != nil {
		rs = g.opaqueResults(call, sig, args, "dynamic call")
	}
	g.dynCalls = append(g.dynCalls, ptDynCall{
		pos: call.Pos(), p: g.p, fun: funNode, args: args, label: "dynamic call",
	})
	return rs, callInfo{args: args, fun: funNode}
}

// pureIfaceMethod reports whether fn is a method of a //hypatia:pure
// interface.
func (g *ptGen) pureIfaceMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	if named, ok := types.Unalias(sig.Recv().Type()).(*types.Named); ok {
		return g.an.ifaces[named.Obj()]
	}
	return false
}

// bindCall evaluates a static call's receiver and arguments and binds them
// to the callee's parameters.
func (g *ptGen) bindCall(call *ast.CallExpr, fn *types.Func, sig *types.Signature) []ptNode {
	var args []ptNode
	argOffset := 0
	if sig.Recv() != nil {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if s, ok := g.info.Selections[sel]; ok && s.Kind() == types.MethodExpr {
				// T.M(recv, args...): the first argument is the receiver.
				if len(call.Args) > 0 {
					recv := g.eval(call.Args[0])
					args = append(args, recv)
					if trackable(sig.Recv().Type()) {
						g.s.addCopy(recv, g.ensureVar(sig.Recv()))
					}
					argOffset = 1
				}
			} else {
				recv := g.eval(sel.X)
				args = append(args, recv)
				if trackable(sig.Recv().Type()) {
					g.s.addCopy(recv, g.ensureVar(sig.Recv()))
				}
			}
		}
	}
	args = append(args, g.bindParams(call, sig, argOffset)...)
	return args
}

// bindParams evaluates call arguments (from argOffset on) and binds them to
// sig's parameters, handling variadic packing.
func (g *ptGen) bindParams(call *ast.CallExpr, sig *types.Signature, argOffset int) []ptNode {
	var args []ptNode
	np := sig.Params().Len()
	for i := argOffset; i < len(call.Args); i++ {
		v := g.eval(call.Args[i])
		args = append(args, v)
		pi := i - argOffset
		if sig.Variadic() && pi >= np-1 {
			pv := sig.Params().At(np - 1)
			if !trackable(pv.Type()) {
				continue
			}
			pn := g.ensureVar(pv)
			if call.Ellipsis.IsValid() {
				g.s.addCopy(v, pn)
			} else {
				// Pack extra arguments into a fresh slice object.
				g.s.addStore(pn, "[]", v, nil)
				if g.s.nodes[pn].ptsList == nil {
					o := g.s.newObject(objAlloc, pv.Type(), call.Pos(), "variadic slice")
					g.s.addObj(pn, o)
				}
			}
			continue
		}
		if pi < np {
			pv := sig.Params().At(pi)
			if trackable(pv.Type()) {
				g.s.addCopy(v, g.ensureVar(pv))
			}
		}
	}
	return args
}

// bindArgs is bindParams for immediately invoked literals (no receiver).
func (g *ptGen) bindArgs(call *ast.CallExpr, sig *types.Signature, argOffset int) []ptNode {
	if sig == nil {
		var args []ptNode
		for _, a := range call.Args {
			args = append(args, g.eval(a))
		}
		return args
	}
	return g.bindParams(call, sig, argOffset)
}

// evalArgsOnly evaluates receiver and arguments without binding them.
func (g *ptGen) evalArgsOnly(call *ast.CallExpr, sig *types.Signature) []ptNode {
	var args []ptNode
	if sig.Recv() != nil {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if s, selOK := g.info.Selections[sel]; !selOK || s.Kind() != types.MethodExpr {
				args = append(args, g.eval(sel.X))
			}
		}
	}
	for _, a := range call.Args {
		args = append(args, g.eval(a))
	}
	return args
}

// ensureResultsFor wraps ensureResults with a nil-signature guard.
func (g *ptGen) ensureResultsFor(k cgKey, sig *types.Signature) []ptNode {
	if sig == nil || sig.Results().Len() == 0 {
		return nil
	}
	return g.ensureResults(k, sig)
}

// epochResults mints fresh per-site objects for each trackable result.
func (g *ptGen) epochResults(sig *types.Signature, pos token.Pos, what string) []ptNode {
	n := sig.Results().Len()
	rs := make([]ptNode, n)
	for i := 0; i < n; i++ {
		rt := sig.Results().At(i).Type()
		if !trackable(rt) {
			rs[i] = ptNone
			continue
		}
		rs[i] = g.epochNode(rt, pos, what)
	}
	return rs
}

// opaqueResults models a call the solver cannot see into: an opaque object
// retains every argument, and each trackable result aliases the arguments
// and the opaque object itself.
func (g *ptGen) opaqueResults(call *ast.CallExpr, sig *types.Signature, args []ptNode, label string) []ptNode {
	o := g.s.newObject(objOpaque, nil, call.Pos(), label)
	on := g.s.newNode("opaque")
	g.s.addObj(on, o)
	for _, a := range args {
		g.s.addStore(on, "[]", a, nil)
	}
	n := sig.Results().Len()
	rs := make([]ptNode, n)
	for i := 0; i < n; i++ {
		if !trackable(sig.Results().At(i).Type()) {
			rs[i] = ptNone
			continue
		}
		r := g.s.newNode("result")
		g.s.addObj(r, o)
		g.s.addLoad(on, "[]", r, nil)
		for _, a := range args {
			g.s.addCopy(a, r)
		}
		rs[i] = r
	}
	return rs
}

func (g *ptGen) evalBuiltin(name string, call *ast.CallExpr) []ptNode {
	switch name {
	case "append":
		if len(call.Args) == 0 {
			return []ptNode{ptNone}
		}
		dst := g.eval(call.Args[0])
		t := g.info.TypeOf(call)
		res := g.s.newNode("append")
		o := g.s.newObject(objAlloc, t, call.Pos(), ptTypeLabel(t)+" value")
		g.s.addObj(res, o)
		g.s.addCopy(dst, res)
		for _, a := range call.Args[1:] {
			v := g.eval(a)
			if call.Ellipsis.IsValid() {
				// append(dst, src...): elements flow between slices.
				el := g.s.newNode("spread")
				g.s.addLoad(v, "[]", el, nil)
				g.s.addStore(res, "[]", el, nil)
			} else {
				g.s.addStore(res, "[]", v, nil)
			}
		}
		return []ptNode{res}
	case "copy":
		if len(call.Args) == 2 {
			dst, src := g.eval(call.Args[0]), g.eval(call.Args[1])
			el := g.s.newNode("copy")
			g.s.addLoad(src, "[]", el, nil)
			g.s.addStore(dst, "[]", el, nil)
		}
		return []ptNode{ptNone}
	case "new", "make":
		t := g.info.TypeOf(call)
		if !trackable(t) {
			return []ptNode{ptNone}
		}
		o := g.s.newObject(objAlloc, t, call.Pos(), ptTypeLabel(t)+" value")
		n := g.s.newNode(name)
		g.s.addObj(n, o)
		return []ptNode{n}
	default:
		for _, a := range call.Args {
			g.eval(a)
		}
		return []ptNode{ptNone}
	}
}

// ---- goroutine launches ----

func (g *ptGen) genGo(st *ast.GoStmt) {
	_, info := g.evalCallInfo(st.Call)
	nodes := append([]ptNode(nil), info.args...)
	if info.fun != ptNone {
		nodes = append(nodes, info.fun)
	}
	var kept []ptNode
	for _, n := range nodes {
		if n != ptNone {
			kept = append(kept, n)
		}
	}
	g.seeds = append(g.seeds, ptSeed{
		pos:    st.Pos(),
		p:      g.p,
		inLoop: g.inLoop(st.Pos()),
		nodes:  kept,
	})
}

// isModuleFn reports whether fn is declared inside the analyzed module.
func isModuleFn(fn *types.Func, module string) bool {
	if fn.Pkg() == nil {
		return false
	}
	path := fn.Pkg().Path()
	return path == module || strings.HasPrefix(path, module+"/")
}
