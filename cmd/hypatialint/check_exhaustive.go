package main

// The exhaustive check: a switch over a //hypatia:exhaustive tag type (the
// event-kind enum) must either carry a default case or cover every
// package-scope constant of that type, so a new event kind cannot silently
// fall through the serial or sharded dispatch loops. A non-constant case
// expression makes coverage undecidable, so such switches are skipped rather
// than guessed at.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

const exhaustiveDirective = "//hypatia:exhaustive"

// exhaustiveIndex is the set of //hypatia:exhaustive tag types across the
// loaded packages.
type exhaustiveIndex struct {
	tags map[*types.TypeName]bool
	// honored records the directive comments that took effect, for the
	// misplaced-directive check.
	honored map[token.Pos]bool
}

// collectExhaustiveDirectives indexes the directive in the doc comment of
// every defined type (on the spec, or on a single-spec type declaration).
func collectExhaustiveDirectives(all []*pkg) *exhaustiveIndex {
	ex := &exhaustiveIndex{tags: map[*types.TypeName]bool{}, honored: map[token.Pos]bool{}}
	for _, p := range all {
		for _, f := range p.files {
			for _, d := range f.Decls {
				gd, ok := d.(*ast.GenDecl)
				if !ok || gd.Tok != token.TYPE {
					continue
				}
				for _, spec := range gd.Specs {
					ts := spec.(*ast.TypeSpec)
					c := directiveIn(ts.Doc, exhaustiveDirective)
					if c == nil && len(gd.Specs) == 1 {
						c = directiveIn(gd.Doc, exhaustiveDirective)
					}
					if c == nil {
						continue
					}
					if tn, ok := p.info.Defs[ts.Name].(*types.TypeName); ok {
						ex.tags[tn] = true
						ex.honored[c.Pos()] = true
					}
				}
			}
		}
	}
	return ex
}

// tagConst is one package-scope constant of an exhaustive tag type.
type tagConst struct {
	name string
	val  string // exact constant value, the coverage key
}

// tagConsts returns the package-scope constants of the exhaustive type, in
// scope (sorted-name) order.
func tagConsts(tn *types.TypeName) []tagConst {
	var consts []tagConst
	scope := tn.Pkg().Scope()
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok || !types.Identical(c.Type(), tn.Type()) {
			continue
		}
		consts = append(consts, tagConst{name: name, val: c.Val().ExactString()})
	}
	return consts
}

// checkExhaustivePkg reports every switch over an annotated tag type that
// has no default and provably misses a constant.
func checkExhaustivePkg(p *pkg, ex *exhaustiveIndex, rep *reporter) {
	if len(ex.tags) == 0 {
		return
	}
	for _, f := range p.files {
		ast.Inspect(f, func(n ast.Node) bool {
			sw, ok := n.(*ast.SwitchStmt)
			if !ok || sw.Tag == nil {
				return true
			}
			tagType := p.info.TypeOf(sw.Tag)
			if tagType == nil {
				return true
			}
			named, ok := types.Unalias(tagType).(*types.Named)
			if !ok || !ex.tags[named.Obj()] {
				return true
			}
			consts := tagConsts(named.Obj())
			covered := map[string]bool{}
			decidable := true
			hasDefault := false
			for _, cc := range sw.Body.List {
				cl, ok := cc.(*ast.CaseClause)
				if !ok {
					continue
				}
				if cl.List == nil {
					hasDefault = true
					continue
				}
				for _, e := range cl.List {
					tv, ok := p.info.Types[e]
					if !ok || tv.Value == nil {
						decidable = false
						continue
					}
					covered[tv.Value.ExactString()] = true
				}
			}
			if hasDefault || !decidable {
				return true
			}
			var missing []string
			for _, c := range consts {
				if !covered[c.val] {
					missing = append(missing, c.name)
				}
			}
			if len(missing) > 0 {
				rep.add(sw.Pos(), checkExhaustive, fmt.Sprintf(
					"switch over %s does not cover %s and has no default; new %s values would fall through silently",
					named.Obj().Name(), strings.Join(missing, ", "), named.Obj().Name()))
			}
			return true
		})
	}
}
