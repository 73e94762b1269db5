package main

// The purity check turns //hypatia:pure into a verified contract. Three
// rule groups, all reporting inside the package under analysis so findings
// stay a function of that package plus its dependencies (linting a package
// alone or as part of ./... reports the same findings for it):
//
//  1. Contract verification: an annotated function whose effect summary
//     contains any impure bit is a finding at its declaration, naming the
//     first offending effect and the full call chain down to it.
//
//  2. Contract closure: an annotated function may only make static
//     module-local calls to other annotated functions. Function literals
//     are exempt (their effects fold into the definer and are caught by
//     rule 1); dynamic calls must go through a //hypatia:pure-annotated
//     named function type or they surface as unknown-call effects under
//     rule 1. Together with rule 3 this gives induction: everything
//     reachable from the pipeline's worker bodies carries — and passes —
//     the contract.
//
//  3. Roots: inside the pureScope packages (internal/core), every
//     goroutine body is treated as a pipeline worker. Its own body may use
//     channels, spawn further goroutines, and fill caller-owned arenas —
//     that is how the pipeline communicates — but may not touch globals,
//     the wall clock, randomness, IO, or map iteration order, and every
//     module-local function it calls must be annotated.
//
// Misplaced or unknown //hypatia: comments are reported under the
// directive check, like malformed //lint: comments.

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// checkPurityPkgs runs the purity check over the lint targets, using effect
// summaries computed over every loaded package.
func checkPurityPkgs(targets, all []*pkg, cg *callGraph, cfg config, ax *allocAnalysis, rep *reporter) {
	an := analyzeEffects(all, cg, cfg.module)
	// An implementer of a //hypatia:pure interface must carry the annotation
	// itself, which checkAnnotated then holds it to.
	unannotated := func(tn, itn *types.TypeName, m, impl *types.Func) string {
		if an.fns[impl] {
			return ""
		}
		return fmt.Sprintf("%s satisfies //hypatia:pure interface %s.%s; mark %s //hypatia:pure (calls through the interface are trusted)",
			tn.Name(), itn.Pkg().Name(), itn.Name(), m.Name())
	}
	for _, p := range targets {
		pc := &purityChecker{an: an, p: p, allocs: ax, rep: rep}
		pc.checkDirectiveComments()
		an.checkAnnotated(p, rep, pc.checkCalleesAnnotated)
		an.checkImplementers(p, rep, unannotated)
		if inScope(p.path, cfg.pureScope) {
			pc.checkRoots()
		}
	}
}

type purityChecker struct {
	an     *effectAnalysis
	p      *pkg
	allocs *allocAnalysis
	rep    *reporter
}

// checkDirectiveComments flags //hypatia: comments that are malformed or
// placed where the analysis ignores them.
func (pc *purityChecker) checkDirectiveComments() {
	for _, f := range pc.p.files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "//hypatia:")
				if !ok {
					continue
				}
				verb := rest
				if i := strings.IndexAny(verb, " ("); i >= 0 {
					verb = verb[:i]
				}
				switch verb {
				case "pure":
					if !pc.an.honored[c.Pos()] {
						pc.rep.add(c.Pos(), checkDirective,
							"//hypatia:pure has no effect here; it belongs in the doc comment of a function or a named function type")
					}
				case "noalloc":
					if !pc.allocs.honored[c.Pos()] {
						pc.rep.add(c.Pos(), checkDirective,
							"//hypatia:noalloc has no effect here; it belongs in the doc comment of a function, a named function type, or an interface")
					}
				case "allocs":
					if !pc.allocs.honored[c.Pos()] {
						pc.rep.add(c.Pos(), checkDirective,
							"//hypatia:allocs(amortized) downgrades no allocation site here; it must trail (or sit immediately above) an allocation inside a function body, and amortized is the only supported class")
					}
				default:
					pc.rep.add(c.Pos(), checkDirective,
						fmt.Sprintf("unknown //hypatia: directive %q (supported: //hypatia:pure, //hypatia:noalloc, //hypatia:allocs)", "hypatia:"+verb))
				}
			}
		}
	}
}

// checkCalleesAnnotated enforces rule 2 over one node's body and its
// plainly defined literals: every static module-local callee must itself
// carry the directive. (Rule 1 is the contract engine's checkAnnotated,
// which calls this on every annotated declaration.)
func (pc *purityChecker) checkCalleesAnnotated(k cgKey, body *ast.BlockStmt, owner string) {
	bodyInspect(body, func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		callee := resolveCallee(pc.p.info, call)
		if callee == nil || pc.an.fns[callee] {
			return
		}
		if _, hasBody := pc.an.cg.body[callee]; !hasBody {
			return // interface/stdlib: rule 1 handles it via the summary
		}
		pc.rep.add(call.Pos(), checkPurity,
			fmt.Sprintf("%s calls %s, which is not marked //hypatia:pure; annotate it (and fix what the analysis finds) or drop the contract", owner, pc.an.cg.nodeName(callee)))
	})
	for _, e := range pc.an.cg.edges[k] {
		lit, isLit := e.callee.(*ast.FuncLit)
		if isLit && !e.viaGo {
			pc.checkCalleesAnnotated(lit, lit.Body, owner)
		}
	}
}

// rootAllowed are the effects a pipeline goroutine body may have beyond
// what an annotated function may: it communicates over channels, spawns
// sub-workers, and fills arenas handed to it.
const rootAllowed = effChan | effSpawn | effMutatesPointee

// checkRoots applies rule 3: discover every goroutine launch in this
// package and hold the launched body to the worker contract.
func (pc *purityChecker) checkRoots() {
	seen := map[cgKey]bool{}
	for _, k := range pc.an.cg.funcsIn[pc.p] {
		body := pc.an.cg.body[k]
		if body == nil {
			continue
		}
		bodyInspect(body, func(n ast.Node) {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return
			}
			pc.checkRoot(g, seen)
		})
	}
}

func (pc *purityChecker) checkRoot(g *ast.GoStmt, seen map[cgKey]bool) {
	if lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit); ok {
		pc.scanRootBody(lit, seen)
		return
	}
	callee := resolveCallee(pc.p.info, g.Call)
	if callee == nil {
		pc.rep.add(g.Pos(), checkPurity,
			"goroutine launched through a dynamic call; its body cannot be held to the worker purity contract")
		return
	}
	if body := pc.an.cg.body[callee]; body != nil && pc.an.cg.pkgOf[callee] == pc.p {
		pc.scanRootBody(callee, seen)
		return
	}
	// Launched function lives outside this package (or has no body): the
	// contract must travel with it as an annotation checked over there.
	if !pc.an.fns[callee] {
		pc.rep.add(g.Pos(), checkPurity,
			fmt.Sprintf("launches %s, which is defined outside this package and not marked //hypatia:pure", pc.an.cg.nodeName(callee)))
	}
}

// scanRootBody re-scans one goroutine body (and the literals it defines)
// with annotated callees trusted, then reports every effect outside the
// worker allowance, plus unannotated module-local callees.
func (pc *purityChecker) scanRootBody(k cgKey, seen map[cgKey]bool) {
	if seen[k] {
		return
	}
	seen[k] = true
	body := pc.an.cg.body[k]
	if body == nil {
		return
	}
	name := pc.an.cg.nodeName(k)
	fs := &funcScan{taintScan: newTaintScan(pc.an.cg, k), an: pc.an, sum: &funcSummary{}, trustPure: true}
	fs.walk()
	for _, en := range effectNames {
		if en.bit&effImpure == 0 || en.bit&rootAllowed != 0 || !fs.sum.has(en.bit) {
			continue
		}
		o := fs.sum.origins[en.bit]
		pos := o.pos
		if !pos.IsValid() {
			pos = body.Pos()
		}
		pc.rep.add(pos, checkPurity,
			fmt.Sprintf("pipeline goroutine %s must stay pure but %s", name, o.describe(name)))
	}
	bodyInspect(body, func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		callee := resolveCallee(pc.p.info, call)
		if callee == nil || pc.an.fns[callee] {
			return
		}
		if _, hasBody := pc.an.cg.body[callee]; !hasBody {
			return
		}
		pc.rep.add(call.Pos(), checkPurity,
			fmt.Sprintf("pipeline goroutine %s calls %s, which is not marked //hypatia:pure", name, pc.an.cg.nodeName(callee)))
	})
	for _, e := range pc.an.cg.edges[k] {
		if lit, isLit := e.callee.(*ast.FuncLit); isLit {
			// Plainly defined literals run on this frame; go-launched ones
			// are workers in their own right. Either way the contract
			// applies.
			pc.scanRootBody(lit, seen)
		}
	}
}
