package main

// The contract engine behind the purity and allocsafety checks. Both turn a
// //hypatia:<x> directive into a verified bottom-up contract of the same
// shape:
//
//   - a directive index over function declarations, named function types
//     (calls through their values are trusted) and interfaces (calls through
//     their methods are trusted, module-local implementers are obligated);
//   - a summary per call-graph node — a set of lattice points, each with the
//     origin call chain that first established it — computed bottom-up over
//     the strongly connected components of the module-local call graph, the
//     members of a component iterating to a fixpoint (the lattices are
//     finite unions, so the iteration is trivially bounded);
//   - a check that every annotated function's summary stays clear of the
//     violating points, and that the implementers of annotated interfaces
//     keep the promise callers rely on.
//
// A check family supplies the directive, the lattice points, and the
// per-node scan; effects.go and allocs.go are the two instances.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// origin is the witness for one lattice point of one summary: what the
// primitive effect is, where it happens, and the call chain (callee names,
// outermost first) from the summarized function down to the site.
type origin struct {
	What  string
	Site  token.Position
	Chain []string
	// pos is where this effect surfaces in the summarized function itself —
	// the primitive site, or the local call site for inherited effects — so
	// findings always land inside the package under analysis.
	pos token.Pos
}

// describe renders the witness for a finding message, naming the full call
// chain starting from fn.
func (o origin) describe(fn string) string {
	chain := fn
	if len(o.Chain) > 0 {
		chain += " → " + strings.Join(o.Chain, " → ")
	}
	return fmt.Sprintf("%s at %s:%d (call chain: %s)", o.What, shortFile(o.Site.Filename), o.Site.Line, chain)
}

func shortFile(name string) string {
	if i := strings.LastIndex(name, "/"); i >= 0 {
		return name[i+1:]
	}
	return name
}

// summary is the computed summary of one call-graph node: the lattice points
// K established for it, each with the origin that established it first.
type summary[K comparable] struct {
	origins map[K]origin
}

func (s *summary[K]) has(k K) bool {
	_, ok := s.origins[k]
	return ok
}

// add records o as the witness of point k unless k already has one, and
// reports whether the summary grew.
func (s *summary[K]) add(k K, o origin) bool {
	if s.has(k) {
		return false
	}
	if s.origins == nil {
		s.origins = map[K]origin{}
	}
	s.origins[k] = o
	return true
}

// contract is the module-wide state of one //hypatia:<x> contract: the
// directive index and a summary per call-graph node.
type contract[K comparable] struct {
	cg        *callGraph
	module    string
	check     string // the finding family violations are reported under
	directive string // e.g. "//hypatia:pure"
	// points are the lattice points in the order a fixpoint pass merges
	// them and a witness is picked; violates tells which of them an
	// annotated function must stay clear of.
	points   []K
	violates func(K) bool
	// scan computes one node's summary from its body, composing callee
	// summaries (provisional ones for the callees in inSCC).
	scan func(k cgKey, inSCC map[cgKey]bool) *summary[K]

	summaries map[cgKey]*summary[K]
	// fns are the annotated declared functions.
	fns map[*types.Func]bool
	// funcTypes are annotated named function types: calls through values of
	// such a type honor the contract by documented promise.
	funcTypes map[*types.TypeName]bool
	// ifaces are annotated interface types: their methods are trusted at
	// call sites, and every module-local implementation is held to the
	// contract by checkImplementers. ifaceList keeps declaration order.
	ifaces    map[*types.TypeName]bool
	ifaceList []*types.TypeName
	// honored records the comment positions of directives that actually
	// took effect, so checkDirectiveComments can flag directives placed
	// where the analysis ignores them.
	honored map[token.Pos]bool
}

func newContract[K comparable](cg *callGraph, module, check, directive string, points []K, violates func(K) bool) *contract[K] {
	return &contract[K]{
		cg: cg, module: module, check: check, directive: directive,
		points: points, violates: violates,
		summaries: map[cgKey]*summary[K]{},
		fns:       map[*types.Func]bool{},
		funcTypes: map[*types.TypeName]bool{},
		ifaces:    map[*types.TypeName]bool{},
		honored:   map[token.Pos]bool{},
	}
}

// solve indexes the directives of every package, then computes the summary
// of every call-graph node, callees before callers.
func (c *contract[K]) solve(all []*pkg) {
	// Stable node order: packages are pre-sorted by path, funcsIn is file
	// order, so SCC discovery (and therefore witness selection) is
	// deterministic.
	var order []cgKey
	for _, p := range all {
		c.collectDirectives(p)
		order = append(order, c.cg.funcsIn[p]...)
	}
	for _, scc := range sccOrder(order, c.cg) {
		c.solveSCC(scc)
	}
}

// directiveIn returns the comment of a doc group that is exactly the given
// directive (optionally followed by a rationale after a space), or nil.
func directiveIn(doc *ast.CommentGroup, directive string) *ast.Comment {
	if doc == nil {
		return nil
	}
	for _, c := range doc.List {
		if c.Text == directive || strings.HasPrefix(c.Text, directive+" ") {
			return c
		}
	}
	return nil
}

// collectDirectives records the contract's annotations on function
// declarations, named function types, and interfaces.
func (c *contract[K]) collectDirectives(p *pkg) {
	for _, f := range p.files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if dc := directiveIn(d.Doc, c.directive); dc != nil {
					if fn, ok := p.info.Defs[d.Name].(*types.Func); ok {
						c.fns[fn] = true
						c.honored[dc.Pos()] = true
					}
				}
			case *ast.GenDecl:
				if d.Tok != token.TYPE {
					continue
				}
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					dc := directiveIn(ts.Doc, c.directive)
					if dc == nil && len(d.Specs) == 1 {
						dc = directiveIn(d.Doc, c.directive)
					}
					if dc == nil {
						continue
					}
					tn, ok := p.info.Defs[ts.Name].(*types.TypeName)
					if !ok {
						continue
					}
					switch tn.Type().Underlying().(type) {
					case *types.Signature:
						c.funcTypes[tn] = true
						c.honored[dc.Pos()] = true
					case *types.Interface:
						c.ifaces[tn] = true
						c.ifaceList = append(c.ifaceList, tn)
						c.honored[dc.Pos()] = true
					}
				}
			}
		}
	}
}

// sccOrder returns the strongly connected components of the call graph in
// reverse topological order (callees before callers), following only plain
// call edges — a go-launch edge is charged at the launch site instead of
// inheriting the body's summary.
func sccOrder(order []cgKey, cg *callGraph) [][]cgKey {
	index := map[cgKey]int{}
	low := map[cgKey]int{}
	onStack := map[cgKey]bool{}
	var stack []cgKey
	var sccs [][]cgKey
	next := 0

	var strongconnect func(v cgKey)
	strongconnect = func(v cgKey) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, e := range cg.edges[v] {
			if e.viaGo {
				continue
			}
			w := e.callee
			if _, hasBody := cg.body[w]; !hasBody {
				continue
			}
			if _, seen := index[w]; !seen {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var scc []cgKey
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			sccs = append(sccs, scc)
		}
	}
	for _, v := range order {
		if _, seen := index[v]; !seen {
			strongconnect(v)
		}
	}
	return sccs
}

// solveSCC computes the summaries of one component to fixpoint. Summaries
// only grow, so re-scanning members until nothing changes terminates within
// a handful of passes.
func (c *contract[K]) solveSCC(scc []cgKey) {
	inSCC := map[cgKey]bool{}
	for _, k := range scc {
		inSCC[k] = true
		if c.summaries[k] == nil {
			c.summaries[k] = &summary[K]{}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, k := range scc {
			fresh := c.scan(k, inSCC)
			cur := c.summaries[k]
			for _, pt := range c.points {
				if o, ok := fresh.origins[pt]; ok && cur.add(pt, o) {
					changed = true
				}
			}
		}
	}
}

// witness returns the origin of the first violating point of a summary.
func (c *contract[K]) witness(s *summary[K]) (origin, bool) {
	for _, pt := range c.points {
		if o, ok := s.origins[pt]; ok && c.violates(pt) {
			return o, true
		}
	}
	return origin{}, false
}

// checkAnnotated verifies the annotated functions declared in p against
// their summaries: a violating point is a finding at the declaration, naming
// the offending site and the full call chain down to it. each, when non-nil,
// is called on every annotated declaration for the family's further rules.
func (c *contract[K]) checkAnnotated(p *pkg, rep *reporter, each func(k cgKey, body *ast.BlockStmt, name string)) {
	for _, k := range c.cg.funcsIn[p] {
		fn, ok := k.(*types.Func)
		if !ok || !c.fns[fn] {
			continue
		}
		decl := c.cg.declOf[fn]
		if decl == nil {
			continue
		}
		name := c.cg.nodeName(fn)
		if sum := c.summaries[k]; sum != nil {
			if o, bad := c.witness(sum); bad {
				rep.add(decl.Name.Pos(), c.check,
					fmt.Sprintf("%s is marked %s but %s", name, c.directive, o.describe(name)))
			}
		}
		if each != nil {
			each(k, decl.Body, name)
		}
	}
}

// checkImplementers enforces the honesty side of annotated interfaces: calls
// through such an interface are trusted, so every module-local type that
// satisfies one is held to the contract on the methods it declares in p.
// violation judges one implementing method and returns the finding text, or
// "" when the method keeps the promise. (A type satisfying an annotated
// interface declared downstream of its own package is invisible from here —
// the documented structural-typing gap.)
func (c *contract[K]) checkImplementers(p *pkg, rep *reporter, violation func(tn, itn *types.TypeName, m, impl *types.Func) string) {
	scope := p.types.Scope()
	reported := map[*types.Func]bool{}
	for _, tname := range scope.Names() {
		tn, ok := scope.Lookup(tname).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		if _, isIface := tn.Type().Underlying().(*types.Interface); isIface {
			continue
		}
		for _, itn := range c.ifaceList {
			iface, ok := itn.Type().Underlying().(*types.Interface)
			if !ok {
				continue
			}
			ptr := types.NewPointer(tn.Type())
			if !types.Implements(tn.Type(), iface) && !types.Implements(ptr, iface) {
				continue
			}
			for i := 0; i < iface.NumMethods(); i++ {
				m := iface.Method(i)
				obj, _, _ := types.LookupFieldOrMethod(ptr, true, m.Pkg(), m.Name())
				impl, ok := obj.(*types.Func)
				if !ok || reported[impl] {
					continue
				}
				decl := c.cg.declOf[impl]
				if decl == nil || c.cg.pkgOf[impl] != p {
					continue // promoted from elsewhere; checked in its own package
				}
				if msg := violation(tn, itn, m, impl); msg != "" {
					reported[impl] = true
					rep.add(decl.Name.Pos(), c.check, msg)
				}
			}
		}
	}
}
