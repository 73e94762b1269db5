package main

// The handle-annotation index behind the handlesafety check. PR 8 turned the
// simulator's hot state into struct-of-arrays addressed by raw integer
// handles; these directives restore the type distinctions the pointer graph
// used to enforce, as machine-checked contracts:
//
//	//hypatia:handle(SPEC)            on a struct field: the field is a
//	                                  handle (scalar spec) or a handle array
//	                                  (index/element spec)
//	//hypatia:handle(name: SPEC, ...) in a function's doc comment: binds the
//	                                  named parameters, and `return:` the
//	                                  result tuple, to handle specs
//	//hypatia:handle(D) <rationale>   trailing a statement that stores a
//	                                  computed value: coerces the stored
//	                                  value into domain D (flat-index
//	                                  arithmetic, counting loops)
//	//hypatia:epoch(operand: D, ...)  in a function's doc comment: calling
//	                                  the function invalidates every
//	                                  outstanding D handle (arena reset,
//	                                  CSR rebuild, clone-into-reused-buffer)
//	//hypatia:epoch(D)                trailing a struct field: writes to the
//	                                  field invalidate D handles (ring-buffer
//	                                  head advance)
//	//hypatia:exhaustive              on a defined integer type: every switch
//	                                  over the type must cover all of its
//	                                  package-level constants or carry a
//	                                  default
//
// A SPEC is one of three shapes over lowercase domain names (node, device,
// ring-slot, ...): `D` — a scalar D handle, or an array indexed by D when
// the declaration is a slice/array; `A->B` — an array indexed by A whose
// elements are B handles; `->B` — element domain B with an unchecked index
// (heap-position arithmetic the lattice deliberately cannot follow).
//
// Explicit annotations are trusted axioms at declaration boundaries, exactly
// like unitsafety's identifier suffixes; everything between boundaries is
// proven by the dataflow in check_handles.go.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

const (
	handleDirective     = "//hypatia:handle("
	epochDirective      = "//hypatia:epoch("
	exhaustiveDirective = "//hypatia:exhaustive"
)

// handleSpec is one parsed SPEC: a scalar domain, or an index/element domain
// pair for array-typed declarations.
type handleSpec struct {
	dom  string // scalar handle domain
	idx  string // index domain of a slice/array ("" = unchecked)
	elem string // element domain of a slice/array ("" = untyped elements)
}

func (s handleSpec) zero() bool { return s.dom == "" && s.idx == "" && s.elem == "" }

// String renders the spec back in directive syntax.
func (s handleSpec) String() string {
	if s.dom != "" {
		return s.dom
	}
	return s.idx + "->" + s.elem
}

// validDomain restricts domain names to lowercase kebab-case identifiers.
func validDomain(d string) bool {
	if d == "" || d[0] < 'a' || d[0] > 'z' {
		return false
	}
	for i := 1; i < len(d); i++ {
		c := d[i]
		if (c < 'a' || c > 'z') && (c < '0' || c > '9') && c != '-' {
			return false
		}
	}
	return true
}

// parseHandleSpec parses one SPEC. isArray selects how a bare domain binds:
// index domain for slice/array declarations, scalar domain otherwise.
func parseHandleSpec(s string, isArray bool) (handleSpec, error) {
	s = strings.TrimSpace(s)
	if i := strings.Index(s, "->"); i >= 0 {
		spec := handleSpec{idx: strings.TrimSpace(s[:i]), elem: strings.TrimSpace(s[i+2:])}
		if spec.idx != "" && !validDomain(spec.idx) {
			return handleSpec{}, fmt.Errorf("bad index domain %q", spec.idx)
		}
		if !validDomain(spec.elem) {
			return handleSpec{}, fmt.Errorf("bad element domain %q", spec.elem)
		}
		return spec, nil
	}
	if !validDomain(s) {
		return handleSpec{}, fmt.Errorf("bad domain %q", s)
	}
	if isArray {
		return handleSpec{idx: s}, nil
	}
	return handleSpec{dom: s}, nil
}

// directiveArg extracts the parenthesized argument of a directive comment:
// "//hypatia:handle(node->device) rationale" yields "node->device".
func directiveArg(text, prefix string) (string, bool) {
	rest, ok := strings.CutPrefix(text, prefix)
	if !ok {
		return "", false
	}
	i := strings.IndexByte(rest, ')')
	if i < 0 {
		return "", false
	}
	return rest[:i], true
}

// lineKey addresses a coercion comment by its source line; go/ast does not
// attach trailing statement comments, so application is by line match.
type lineKey struct {
	file string
	line int
}

// coercion is one trailing //hypatia:handle(D) comment: the next store on
// its line adopts domain D at the current epoch.
type coercion struct {
	dom string
	pos token.Pos
}

// handleIndex is the module-wide set of handle, epoch, and exhaustive
// annotations.
type handleIndex struct {
	// fields maps annotated struct fields to their specs.
	fields map[types.Object]handleSpec
	// epochFields maps struct fields whose writes bump a domain's epoch.
	epochFields map[types.Object]string
	// params holds per-function parameter specs, aligned to the signature
	// (zero spec = unannotated slot).
	params map[*types.Func][]handleSpec
	// results holds per-function result-tuple specs.
	results map[*types.Func][]handleSpec
	// epochFns maps functions whose call bumps the listed domains.
	epochFns map[*types.Func][]string
	// exhaustive marks defined types whose switches must cover every
	// package-level constant.
	exhaustive map[*types.TypeName]bool
	// coerce maps source lines carrying a trailing coercion comment.
	coerce map[lineKey]*coercion
	// bumped is the set of domains named by any epoch directive; only these
	// need staleness tracking.
	bumped map[string]bool
	// honored records directive comment positions that took effect, for the
	// misplaced-directive check. Coercions are honored when the dataflow
	// applies them.
	honored map[token.Pos]bool
	// pkgs marks packages declaring at least one annotation.
	pkgs  map[*types.Package]bool
	count int
}

func newHandleIndex() *handleIndex {
	return &handleIndex{
		fields:      map[types.Object]handleSpec{},
		epochFields: map[types.Object]string{},
		params:      map[*types.Func][]handleSpec{},
		results:     map[*types.Func][]handleSpec{},
		epochFns:    map[*types.Func][]string{},
		exhaustive:  map[*types.TypeName]bool{},
		coerce:      map[lineKey]*coercion{},
		bumped:      map[string]bool{},
		honored:     map[token.Pos]bool{},
		pkgs:        map[*types.Package]bool{},
	}
}

// isArrayType reports whether t indexes like an array: slice, array, or
// pointer to array.
func isArrayType(t types.Type) bool {
	if t == nil {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Slice, *types.Array:
		return true
	case *types.Pointer:
		_, ok := u.Elem().Underlying().(*types.Array)
		return ok
	}
	return false
}

// collectHandleDirectives indexes every handle/epoch/exhaustive annotation
// across the loaded packages, then registers the leftover trailing
// //hypatia:handle comments as statement coercions.
func collectHandleDirectives(all []*pkg) *handleIndex {
	hx := newHandleIndex()
	for _, p := range all {
		for _, f := range p.files {
			consumed := map[token.Pos]bool{}
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					hx.collectFuncDirectives(p, d, consumed)
				case *ast.GenDecl:
					if d.Tok != token.TYPE {
						continue
					}
					for _, spec := range d.Specs {
						ts, ok := spec.(*ast.TypeSpec)
						if !ok {
							continue
						}
						c := directiveIn(ts.Doc, exhaustiveDirective)
						if c == nil && len(d.Specs) == 1 {
							c = directiveIn(d.Doc, exhaustiveDirective)
						}
						if c != nil {
							if tn, ok := p.info.Defs[ts.Name].(*types.TypeName); ok {
								hx.exhaustive[tn] = true
								hx.mark(c.Pos(), p)
							}
						}
						hx.collectFieldSpecs(p, ts, consumed)
					}
				}
			}
			hx.collectCoercions(p, f, consumed)
		}
	}
	return hx
}

func (hx *handleIndex) mark(pos token.Pos, p *pkg) {
	hx.honored[pos] = true
	hx.pkgs[p.types] = true
	hx.count++
}

// collectFuncDirectives parses //hypatia:handle parameter/result bindings
// and //hypatia:epoch invalidation declarations from a function's doc
// comment.
func (hx *handleIndex) collectFuncDirectives(p *pkg, d *ast.FuncDecl, consumed map[token.Pos]bool) {
	if d.Doc == nil {
		return
	}
	fn, _ := p.info.Defs[d.Name].(*types.Func)
	var sig *types.Signature
	if fn != nil {
		sig, _ = fn.Type().(*types.Signature)
	}
	for _, c := range d.Doc.List {
		if arg, ok := directiveArg(c.Text, handleDirective); ok {
			consumed[c.Pos()] = true
			if fn != nil && sig != nil && hx.bindFunc(fn, sig, arg) {
				hx.mark(c.Pos(), p)
			}
		}
		if arg, ok := directiveArg(c.Text, epochDirective); ok {
			consumed[c.Pos()] = true
			if fn != nil && sig != nil && hx.bindEpoch(fn, sig, arg) {
				hx.mark(c.Pos(), p)
			}
		}
	}
}

// bindFunc parses `name: SPEC, ...` bindings. Items without a `name:` head
// extend the previous binding's result list (multi-result returns).
func (hx *handleIndex) bindFunc(fn *types.Func, sig *types.Signature, arg string) bool {
	paramIdx := map[string]int{}
	for i := 0; i < sig.Params().Len(); i++ {
		paramIdx[sig.Params().At(i).Name()] = i
	}
	var params, results []handleSpec
	cur := "" // the binding open to bare continuation items ("return" only)
	for _, item := range strings.Split(arg, ",") {
		item = strings.TrimSpace(item)
		name, specText := "", item
		if i := strings.IndexByte(item, ':'); i >= 0 {
			name, specText = strings.TrimSpace(item[:i]), strings.TrimSpace(item[i+1:])
			cur = name
		} else if cur != "return" {
			return false
		}
		switch {
		case name == "return" || (name == "" && cur == "return"):
			pos := len(results)
			if pos >= sig.Results().Len() {
				return false
			}
			spec, err := parseHandleSpec(specText, isArrayType(sig.Results().At(pos).Type()))
			if err != nil {
				return false
			}
			results = append(results, spec)
		default:
			i, ok := paramIdx[name]
			if !ok {
				return false
			}
			spec, err := parseHandleSpec(specText, isArrayType(sig.Params().At(i).Type()))
			if err != nil {
				return false
			}
			if params == nil {
				params = make([]handleSpec, sig.Params().Len())
			}
			params[i] = spec
		}
	}
	if params == nil && results == nil {
		return false
	}
	if params != nil {
		hx.params[fn] = params
	}
	if results != nil {
		for len(results) < sig.Results().Len() {
			results = append(results, handleSpec{})
		}
		hx.results[fn] = results
	}
	return true
}

// bindEpoch parses `operand: D, D2` where operand names the receiver or a
// parameter (documentation of what is invalidated; the bump is global to the
// domains).
func (hx *handleIndex) bindEpoch(fn *types.Func, sig *types.Signature, arg string) bool {
	i := strings.IndexByte(arg, ':')
	if i < 0 {
		return false
	}
	operand := strings.TrimSpace(arg[:i])
	okOperand := operand == "recv" && sig.Recv() != nil
	for j := 0; j < sig.Params().Len(); j++ {
		if sig.Params().At(j).Name() == operand {
			okOperand = true
		}
	}
	if !okOperand {
		return false
	}
	var doms []string
	for _, d := range strings.Split(arg[i+1:], ",") {
		d = strings.TrimSpace(d)
		if !validDomain(d) {
			return false
		}
		doms = append(doms, d)
	}
	if len(doms) == 0 {
		return false
	}
	hx.epochFns[fn] = doms
	for _, d := range doms {
		hx.bumped[d] = true
	}
	return true
}

// collectFieldSpecs picks up //hypatia:handle and //hypatia:epoch on struct
// fields (doc comment or trailing comment), including nested struct types.
func (hx *handleIndex) collectFieldSpecs(p *pkg, ts *ast.TypeSpec, consumed map[token.Pos]bool) {
	ast.Inspect(ts.Type, func(n ast.Node) bool {
		st, ok := n.(*ast.StructType)
		if !ok {
			return true
		}
		for _, fld := range st.Fields.List {
			for _, cg := range []*ast.CommentGroup{fld.Doc, fld.Comment} {
				if cg == nil {
					continue
				}
				for _, c := range cg.List {
					if arg, ok := directiveArg(c.Text, handleDirective); ok {
						consumed[c.Pos()] = true
						hx.bindField(p, fld, arg, c.Pos())
					}
					if arg, ok := directiveArg(c.Text, epochDirective); ok {
						consumed[c.Pos()] = true
						if validDomain(strings.TrimSpace(arg)) {
							dom := strings.TrimSpace(arg)
							bound := false
							for _, name := range fld.Names {
								if fv, ok := p.info.Defs[name].(*types.Var); ok {
									hx.epochFields[fv] = dom
									hx.bumped[dom] = true
									bound = true
								}
							}
							if bound {
								hx.mark(c.Pos(), p)
							}
						}
					}
				}
			}
		}
		return true
	})
}

func (hx *handleIndex) bindField(p *pkg, fld *ast.Field, arg string, pos token.Pos) {
	bound := false
	for _, name := range fld.Names {
		fv, ok := p.info.Defs[name].(*types.Var)
		if !ok {
			continue
		}
		spec, err := parseHandleSpec(arg, isArrayType(fv.Type()))
		if err != nil {
			continue
		}
		hx.fields[fv] = spec
		bound = true
	}
	if bound {
		hx.mark(pos, p)
	}
}

// collectCoercions registers every //hypatia:handle comment not consumed by
// a declaration binding as a statement coercion for its line. Only scalar
// specs make sense there (a store adopts one domain).
func (hx *handleIndex) collectCoercions(p *pkg, f *ast.File, consumed map[token.Pos]bool) {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if consumed[c.Pos()] {
				continue
			}
			arg, ok := directiveArg(c.Text, handleDirective)
			if !ok {
				continue
			}
			dom := strings.TrimSpace(arg)
			if !validDomain(dom) {
				continue
			}
			pos := p.fset.Position(c.Pos())
			hx.coerce[lineKey{pos.Filename, pos.Line}] = &coercion{dom: dom, pos: c.Pos()}
			hx.pkgs[p.types] = true
			hx.count++
			// honored is marked by the dataflow when a store applies it.
		}
	}
}

// coercionAt returns the coercion registered for the line containing pos.
func (hx *handleIndex) coercionAt(fset *token.FileSet, pos token.Pos) *coercion {
	p := fset.Position(pos)
	return hx.coerce[lineKey{p.Filename, p.Line}]
}

// staleDom returns the epoch-tracked domain governing a value's staleness:
// the first of its domains that any epoch directive can bump.
func (hx *handleIndex) staleDom(dom, idx, elem string) string {
	for _, d := range []string{dom, idx, elem} {
		if d != "" && hx.bumped[d] {
			return d
		}
	}
	return ""
}
