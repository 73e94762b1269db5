package main

// The confinement check: //hypatia:confined as a machine-proven ownership
// contract, built on the points-to solver in pointsto.go.
//
// Annotating a type (or a struct field) //hypatia:confined asserts that
// every value of that type (or held in that field) is reachable from at
// most one goroutine at a time. The analysis proves it by tracking how each
// confined object can cross a goroutine boundary:
//
//   - A go statement hands the launched goroutine its arguments, receiver,
//     and closure captures. One launch is a legal ownership handoff; a
//     confined object reachable from two launches — or from a launch inside
//     a loop, where one value feeds many goroutines — escapes.
//   - A store rooted in a package-level variable publishes the object to
//     every goroutine; that is always a violation.
//   - A dynamic call the solver cannot resolve (interface method, plain
//     function value) may retain its arguments anywhere, so a confined
//     object flowing into one leaves the provable region — reported unless
//     every possible callee is a function value whose body was analyzed.
//
// The legal transfer points are built into the constraint generation, not
// checked here: channel send/receive and //hypatia:transfer calls cut the
// points-to flow (pointsto.go), so ownership handoffs through them never
// produce a reachability edge in the first place. TablePool.Empty and
// ForwardingTable.Release carry the annotation in internal/routing; calls
// through //hypatia:pure function types and interfaces are no-retention by
// their existing contract.
//
// What this check deliberately leaves to locksafety: access to the shared
// launcher-side state *after* a legal launch. Confinement proves the object
// graph reaches at most one goroutine; locksafety proves the fields both
// sides do share are guarded. The two compose — which is why a proven
// //hypatia:confined field is exempt from locksafety's lock demand.
//
// Findings are reported in the package that contains the go statement,
// global store, or dynamic call, keeping each package's findings a function
// of itself plus its dependencies (so linting it alone or as part of ./...
// reports the same findings for it). The solver
// runs once per lint target over its dependency cone; a confined value
// flowing from a target into a *dependency's* launch site is therefore
// reported when that dependency is linted, not here — consistently dropped
// from this target's findings, never double-reported.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

const (
	confinedDirective = "//hypatia:confined"
	transferDirective = "//hypatia:transfer"
)

// confIndex is the module-wide set of confinement annotations.
type confIndex struct {
	// types maps //hypatia:confined type declarations.
	types map[*types.TypeName]bool
	// fields maps //hypatia:confined struct fields.
	fields map[*types.Var]bool
	// transfer maps //hypatia:transfer functions: ownership-transfer points
	// whose arguments are consumed and whose results are fresh.
	transfer map[*types.Func]bool
	// honored records directive comment positions that took effect, for the
	// misplaced-directive check.
	honored map[token.Pos]bool
	// pkgs marks the packages declaring at least one annotation, so cones
	// without any can skip the solver entirely.
	pkgs  map[*types.Package]bool
	count int
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

// collectConfinementDirectives indexes //hypatia:confined and
// //hypatia:transfer annotations across every loaded package.
func collectConfinementDirectives(all []*pkg) *confIndex {
	conf := &confIndex{
		types:    map[*types.TypeName]bool{},
		fields:   map[*types.Var]bool{},
		transfer: map[*types.Func]bool{},
		honored:  map[token.Pos]bool{},
		pkgs:     map[*types.Package]bool{},
	}
	for _, p := range all {
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if c := directiveIn(d.Doc, transferDirective); c != nil {
						if fn, ok := p.info.Defs[d.Name].(*types.Func); ok {
							conf.transfer[fn] = true
							conf.honored[c.Pos()] = true
							conf.pkgs[p.types] = true
							conf.count++
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
						c := directiveIn(ts.Doc, confinedDirective)
						if c == nil && len(d.Specs) == 1 {
							c = directiveIn(d.Doc, confinedDirective)
						}
						if c != nil {
							if tn, ok := p.info.Defs[ts.Name].(*types.TypeName); ok {
								conf.types[tn] = true
								conf.honored[c.Pos()] = true
								conf.pkgs[p.types] = true
								conf.count++
							}
						}
						conf.collectFieldDirectives(p, ts)
					}
				}
			}
		}
	}
	return conf
}

// collectFieldDirectives picks up //hypatia:confined on struct fields (doc
// comment or trailing comment), including fields of nested struct types.
func (conf *confIndex) collectFieldDirectives(p *pkg, ts *ast.TypeSpec) {
	ast.Inspect(ts.Type, func(n ast.Node) bool {
		st, ok := n.(*ast.StructType)
		if !ok {
			return true
		}
		for _, fld := range st.Fields.List {
			c := directiveIn(fld.Doc, confinedDirective)
			if c == nil {
				c = directiveIn(fld.Comment, confinedDirective)
			}
			if c == nil {
				continue
			}
			for _, name := range fld.Names {
				if fv, ok := p.info.Defs[name].(*types.Var); ok {
					conf.fields[fv] = true
					conf.honored[c.Pos()] = true
					conf.pkgs[p.types] = true
					conf.count++
				}
			}
		}
		return true
	})
}

// confinedTypeName resolves t (through pointers and aliases) to a
// //hypatia:confined type declaration, or nil.
func confinedTypeName(t types.Type, conf *confIndex) *types.TypeName {
	if t == nil {
		return nil
	}
	if named, ok := types.Unalias(derefAll(t)).(*types.Named); ok {
		if conf.types[named.Obj()] {
			return named.Obj()
		}
	}
	return nil
}

// ---- the check ----

// checkConfinementPkgs runs the confinement proof for each lint target over
// its dependency cone. Targets whose cone declares no annotation skip the
// solver.
func checkConfinementPkgs(targets, all []*pkg, cg *callGraph, an *effectAnalysis, conf *confIndex, cfg config, rep *reporter) {
	if conf.count == 0 {
		return
	}
	byPath := map[string]*pkg{}
	for _, p := range all {
		byPath[p.path] = p
	}
	for _, p := range targets {
		cone := coneOf(p, byPath)
		annotated := false
		for _, q := range cone {
			if conf.pkgs[q.types] {
				annotated = true
				break
			}
		}
		if !annotated {
			continue
		}
		runConfinement(p, cone, cg, an, conf, cfg.module, rep)
	}
}

// coneOf returns p plus its transitive module-local imports, sorted by path
// so constraint generation is deterministic.
func coneOf(p *pkg, byPath map[string]*pkg) []*pkg {
	seen := map[*pkg]bool{}
	var visit func(q *pkg)
	visit = func(q *pkg) {
		if q == nil || seen[q] {
			return
		}
		seen[q] = true
		for _, imp := range q.types.Imports() {
			visit(byPath[imp.Path()])
		}
	}
	visit(p)
	cone := make([]*pkg, 0, len(seen))
	for q := range seen {
		cone = append(cone, q)
	}
	sort.Slice(cone, func(i, j int) bool { return cone[i].path < cone[j].path })
	return cone
}

// provEntry records how an object was first reached in one escape BFS.
type provEntry struct {
	parent ptObj
	slot   string
	root   bool // in the points-to set of a seed node directly
}

// reachFrom runs a breadth-first reachability sweep over the object graph
// from the given nodes. BFS order means the recorded provenance chains are
// shortest paths — the tightest escape explanation available.
func reachFrom(s *ptSolver, nodes []ptNode) ([]ptObj, map[ptObj]provEntry) {
	prov := map[ptObj]provEntry{}
	var order, queue []ptObj
	for _, n := range nodes {
		for _, o := range s.pts(n) {
			if _, ok := prov[o]; ok {
				continue
			}
			prov[o] = provEntry{root: true}
			order = append(order, o)
			queue = append(queue, o)
		}
	}
	for len(queue) > 0 {
		o := queue[0]
		queue = queue[1:]
		for _, name := range s.sortedSlots(o) {
			sn := s.objs[o].slots[name]
			for _, o2 := range s.pts(sn) {
				if _, ok := prov[o2]; ok {
					continue
				}
				prov[o2] = provEntry{parent: o, slot: name}
				order = append(order, o2)
				queue = append(queue, o2)
			}
		}
	}
	return order, prov
}

// markConfined classifies every object the solver knows about: objects of a
// //hypatia:confined type, and objects reachable through the points-to set
// of a //hypatia:confined field. The value is the subject suffix used in
// finding messages.
func markConfined(g *ptGen, conf *confIndex) map[ptObj]string {
	confined := map[ptObj]string{}
	for i := range g.s.objs {
		st := &g.s.objs[i]
		if st.kind == objOpaque || st.kind == objFunc || st.kind == objCell {
			continue
		}
		if tn := confinedTypeName(st.typ, conf); tn != nil {
			confined[ptObj(i)] = "its type " + tn.Name() + " is //hypatia:confined"
		}
	}
	for i := range g.s.objs {
		for _, name := range g.s.sortedSlots(ptObj(i)) {
			fv := g.s.objs[i].slotVar[name]
			if fv == nil || !conf.fields[fv] {
				continue
			}
			sn := g.s.objs[i].slots[name]
			for _, o2 := range g.s.pts(sn) {
				if _, ok := confined[o2]; !ok {
					confined[o2] = "it is held in //hypatia:confined field " + fv.Name()
				}
			}
		}
	}
	return confined
}

// objDesc renders one object for an escape path.
func objDesc(g *ptGen, o ptObj) string {
	st := &g.s.objs[o]
	if st.pos.IsValid() {
		return st.label + " at " + g.posOf(st.pos)
	}
	return st.label
}

// slotPhrase renders one edge of an escape path.
func slotPhrase(slot string) string {
	switch {
	case slot == "[]":
		return "an element"
	case slot == "*":
		return "the pointee"
	case slot == "recv":
		return "the bound receiver"
	case strings.HasPrefix(slot, "capture "):
		return "captured variable " + strings.TrimPrefix(slot, "capture ")
	default:
		return "field " + slot
	}
}

// renderPath renders the allocation→escape chain for one finding: the
// escape site, then each aliasing hop from the seed's points-to set down to
// the confined object.
func renderPath(g *ptGen, root string, prov map[ptObj]provEntry, obj ptObj) string {
	type hop struct {
		o    ptObj
		slot string
		root bool
	}
	var chain []hop
	for o := obj; ; {
		e, ok := prov[o]
		if !ok {
			break
		}
		chain = append(chain, hop{o: o, slot: e.slot, root: e.root})
		if e.root {
			break
		}
		o = e.parent
	}
	parts := []string{root}
	for i := len(chain) - 1; i >= 0; i-- {
		h := chain[i]
		if !h.root {
			parts = append(parts, slotPhrase(h.slot))
		}
		parts = append(parts, objDesc(g, h.o))
	}
	return strings.Join(parts, " → ")
}

const transferHint = "a //hypatia:confined value may be handed off only over a channel or through a //hypatia:transfer call"

// runConfinement solves one target's cone and reports every way a confined
// object escapes through a site in the target package.
func runConfinement(target *pkg, cone []*pkg, cg *callGraph, an *effectAnalysis, conf *confIndex, module string, rep *reporter) {
	g := genConstraints(cone, cg, an, conf, module)
	g.s.solve()
	confined := markConfined(g, conf)
	if len(confined) == 0 {
		return
	}
	// One finding per source position: a single go statement seeding several
	// confined objects reads as one violation, not a pile.
	reported := map[token.Pos]bool{}
	report := func(pos token.Pos, msg string) {
		if reported[pos] {
			return
		}
		reported[pos] = true
		rep.add(pos, checkConfinement, msg)
	}
	subject := func(o ptObj) string {
		return objDesc(g, o) + " (" + confined[o] + ")"
	}

	// Goroutine launches. Sorting by source position (never raw token.Pos:
	// the parallel loader parses files in nondeterministic order, so only
	// resolved positions are stable) fixes both the report order and the
	// "other launch" chosen for multi-launch messages.
	var seeds []ptSeed
	for _, sd := range g.seeds {
		if sd.p == target {
			seeds = append(seeds, sd)
		}
	}
	sort.SliceStable(seeds, func(i, j int) bool {
		return posLess(g.fset.Position(seeds[i].pos), g.fset.Position(seeds[j].pos))
	})
	type reachRes struct {
		order []ptObj
		prov  map[ptObj]provEntry
	}
	reaches := make([]reachRes, len(seeds))
	seedsOf := map[ptObj][]int{}
	for i, sd := range seeds {
		order, prov := reachFrom(g.s, sd.nodes)
		reaches[i] = reachRes{order, prov}
		for _, o := range order {
			if _, ok := confined[o]; ok {
				seedsOf[o] = append(seedsOf[o], i)
			}
		}
	}
	for i, sd := range seeds {
		for _, o := range reaches[i].order {
			if _, ok := confined[o]; !ok {
				continue
			}
			path := func() string {
				return renderPath(g, "go statement at "+g.posOf(sd.pos), reaches[i].prov, o)
			}
			if sd.inLoop {
				report(sd.pos, fmt.Sprintf(
					"confined value escapes: %s is captured by a goroutine launched inside a loop, so one value reaches many goroutines; escape path: %s (%s)",
					subject(o), path(), transferHint))
				break
			}
			if len(seedsOf[o]) > 1 {
				other := seedsOf[o][0]
				if other == i {
					other = seedsOf[o][1]
				}
				report(sd.pos, fmt.Sprintf(
					"confined value escapes: %s is reachable from a second goroutine (other launch at %s); escape path: %s (%s)",
					subject(o), g.posOf(seeds[other].pos), path(), transferHint))
				break
			}
			// Exactly one launch reaches it: the legal ownership handoff.
		}
	}

	// Publication through package-level variables: always a violation —
	// every goroutine can reach a global.
	var stores []ptGlobalStore
	for _, gs := range g.globalStores {
		if gs.p == target {
			stores = append(stores, gs)
		}
	}
	sort.SliceStable(stores, func(i, j int) bool {
		return posLess(g.fset.Position(stores[i].pos), g.fset.Position(stores[j].pos))
	})
	storeCovered := map[ptObj]bool{}
	for _, gs := range stores {
		order, prov := reachFrom(g.s, []ptNode{gs.node})
		for _, o := range order {
			if _, ok := confined[o]; !ok {
				continue
			}
			storeCovered[o] = true
			report(gs.pos, fmt.Sprintf(
				"confined value escapes: %s is published through package-level variable %s, making it reachable from every goroutine; escape path: %s",
				subject(o), gs.vname,
				renderPath(g, "store to package-level variable "+gs.vname+" at "+g.posOf(gs.pos), prov, o)))
		}
	}
	// Fallback sweep over the target's own globals, for exposure paths with
	// no single recorded store site (e.g. aliasing through initializers).
	var globals []*types.Var
	for _, v := range g.globals {
		if v.Pkg() == target.types {
			globals = append(globals, v)
		}
	}
	sort.SliceStable(globals, func(i, j int) bool {
		return posLess(g.fset.Position(globals[i].Pos()), g.fset.Position(globals[j].Pos()))
	})
	for _, v := range globals {
		n, ok := g.varNode[v]
		if !ok || n == ptNone {
			continue
		}
		order, prov := reachFrom(g.s, []ptNode{n})
		for _, o := range order {
			if _, ok := confined[o]; !ok || storeCovered[o] {
				continue
			}
			storeCovered[o] = true
			report(v.Pos(), fmt.Sprintf(
				"confined value escapes: %s is reachable from package-level variable %s; escape path: %s",
				subject(o), v.Name(),
				renderPath(g, "package-level variable "+v.Name(), prov, o)))
		}
	}

	// Dynamic calls: a confined object handed to a callee the solver cannot
	// see into loses its proof — unless every possible callee is a function
	// value whose body was analyzed (its own constraints already cover it).
	var dyns []ptDynCall
	for _, dc := range g.dynCalls {
		if dc.p == target {
			dyns = append(dyns, dc)
		}
	}
	sort.SliceStable(dyns, func(i, j int) bool {
		return posLess(g.fset.Position(dyns[i].pos), g.fset.Position(dyns[j].pos))
	})
	for _, dc := range dyns {
		if dc.fun != ptNone {
			pts := g.s.pts(dc.fun)
			allKnown := len(pts) > 0
			for _, o := range pts {
				if !g.s.objs[o].bodyKnown {
					allKnown = false
					break
				}
			}
			if allKnown {
				continue
			}
		}
		nodes := append([]ptNode(nil), dc.args...)
		if dc.fun != ptNone {
			nodes = append(nodes, dc.fun)
		}
		order, prov := reachFrom(g.s, nodes)
		for _, o := range order {
			if _, ok := confined[o]; !ok {
				continue
			}
			report(dc.pos, fmt.Sprintf(
				"confinement unprovable: %s flows into a %s the analysis cannot see into; escape path: %s (resolve the callee statically, or make the handoff explicit with a channel or a //hypatia:transfer call)",
				subject(o), dc.label,
				renderPath(g, dc.label+" at "+g.posOf(dc.pos), prov, o)))
			break
		}
	}
}

// posLess orders resolved source positions.
func posLess(a, b token.Position) bool {
	if a.Filename != b.Filename {
		return a.Filename < b.Filename
	}
	if a.Line != b.Line {
		return a.Line < b.Line
	}
	return a.Column < b.Column
}
