package main

// The unitsafety check: taint-style propagation of physical units through
// the orbit-math packages. PR 1's timeunits check flags raw conversions at
// the sim.Time boundary; this family follows the VALUES — a degrees-tainted
// float that reaches a radians sink three assignments later is reported even
// though every individual statement looks innocent.
//
// Unit sources (taint introduction):
//   - geom.Rad(x) yields radians, geom.Deg(x) yields degrees
//   - math.Asin/Acos/Atan/Atan2 yield radians
//   - known fields: orbit.Elements angles, geom.LLA.Lat/Lon, geom.
//     Topocentric.Elevation/Azimuth are radians; *Deg-suffixed fields are
//     degrees; orbit.Elements.SemiMajorAxis, geom.LLA.Alt, geom.EarthRadius,
//     and geom.Vec3.Distance/Norm results are meters; *Km suffixes are
//     kilometers; sim.Time.Seconds() yields seconds
//   - identifier suffixes: ...Deg/"deg" degrees, ...Rad/"rad" radians,
//     ...Km/"km" kilometers
//
// Unit sinks (taint consumption): math.Sin/Cos/Tan and geom.Deg want
// radians; geom.Rad wants degrees; sim.Seconds wants seconds; stores into
// known-unit fields want that field's unit. On top of the builtin table the
// check infers expectations for module-local parameters over the call graph:
// a parameter that flows into a radians sink makes every call site a radians
// sink too, iterated to fixpoint, so passing degrees to orbit.Circular is
// caught two packages away from any trig call.
//
// Findings: a known-unit value reaching a sink expecting a different unit,
// and +/-/comparison expressions mixing two different known units.
// Propagation is deliberately conservative: joins of different units forget
// (no finding), multiplication by a non-constant forgets, and scaling by a
// recognized conversion factor (pi/180, 180/pi, 1000) forgets too — so a
// manual `rad * 180 / math.Pi` conversion leaves the checker silent rather
// than wrong, while `theta / 2` stays radians.

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"math"
	"strings"
)

type unit uint8

const (
	unitNone unit = iota
	unitRad
	unitDeg
	unitMeters
	unitKm
	unitSeconds
)

func (u unit) String() string {
	switch u {
	case unitRad:
		return "radians"
	case unitDeg:
		return "degrees"
	case unitMeters:
		return "meters"
	case unitKm:
		return "kilometers"
	case unitSeconds:
		return "seconds"
	}
	return "unknown"
}

// unitVal is the abstract value of an expression: a concrete unit (or
// unitNone) plus the set of enclosing-function parameters that taint it
// (used only for expectation inference).
type unitVal struct {
	u    unit
	mask uint64
}

type unitFact map[types.Object]unitVal

var unitLattice = flowLattice[unitFact]{
	bottom: func() unitFact { return unitFact{} },
	clone: func(f unitFact) unitFact {
		c := make(unitFact, len(f))
		for k, v := range f {
			c[k] = v
		}
		return c
	},
	join: func(dst, src unitFact) unitFact {
		for k, v := range src {
			cur, ok := dst[k]
			if !ok {
				dst[k] = v
				continue
			}
			if cur.u != v.u {
				cur.u = unitNone // disagreement across paths: forget
			}
			cur.mask |= v.mask
			dst[k] = cur
		}
		return dst
	},
	equal: func(a, b unitFact) bool {
		if len(a) != len(b) {
			return false
		}
		for k, v := range a {
			if b[k] != v {
				return false
			}
		}
		return true
	},
}

// checkUnitSafetyPkgs runs the unitsafety family: per-function parameter
// expectations and return units are refined to fixpoint over every loaded
// package inside the unit scope, then findings are reported for the lint
// targets (see runTagFamily).
func checkUnitSafetyPkgs(targets, all []*pkg, cfg config, rep *reporter) {
	sums := newTagSummaries[unit]()
	runTagFamily(targets, all, cfg.unitScope, &sums.changed, rep, func(p *pkg, fd *ast.FuncDecl, rep *reporter) {
		analyzeUnitsFunc(p, fd, &sums, rep)
	})
}

// analyzeUnitsFunc runs the unit dataflow over one declaration and the
// literals it contains. rep == nil means summary (inference) mode.
func analyzeUnitsFunc(p *pkg, fd *ast.FuncDecl, sums *tagSummaries[unit], rep *reporter) {
	fn, _ := p.info.Defs[fd.Name].(*types.Func)
	if fn == nil || isUnitConverter(fn) {
		// geom.Rad / geom.Deg are the converters themselves: their bodies
		// mix units by design and their behavior is built into the checker.
		return
	}
	uc := &unitChecker{p: p, sums: sums, fn: fn, params: map[*types.Var]int{}}
	if sig, ok := fn.Type().(*types.Signature); ok {
		for i := 0; i < sig.Params().Len(); i++ {
			uc.params[sig.Params().At(i)] = i
		}
	}
	flowBodies(p, fd, unitLattice, rep, uc.transfer)
}

type unitChecker struct {
	p      *pkg
	sums   *tagSummaries[unit]
	fn     *types.Func
	params map[*types.Var]int
}

// transfer advances the unit fact across one CFG node. inDecl is false
// inside function literals, whose returns do not feed fn's return summary.
func (uc *unitChecker) transfer(f unitFact, n ast.Node, inDecl bool, emit func(ast.Node, string, string)) unitFact {
	switch n := n.(type) {
	case *ast.AssignStmt:
		var vals []unitVal
		for _, rhs := range n.Rhs {
			vals = append(vals, uc.eval(f, rhs, emit))
		}
		if n.Tok == token.ASSIGN || n.Tok == token.DEFINE {
			for i, lhs := range n.Lhs {
				v := unitVal{}
				if len(n.Lhs) == len(n.Rhs) {
					v = vals[i]
				}
				uc.store(f, lhs, v, emit)
			}
		} else {
			// Compound assignment: x op= y.
			for i, lhs := range n.Lhs {
				cur := uc.eval(f, lhs, nil) // lhs read; no second report pass
				rhs := unitVal{}
				if i < len(vals) {
					rhs = vals[i]
				}
				res := cur
				switch n.Tok {
				case token.ADD_ASSIGN, token.SUB_ASSIGN:
					uc.checkMix(cur, rhs, n, emit)
					if res.u == unitNone {
						res.u = rhs.u
					}
					res.mask |= rhs.mask
				case token.MUL_ASSIGN, token.QUO_ASSIGN:
					if !uc.isConst(n.Rhs[i]) || uc.isConversionFactor(n.Rhs[i]) {
						res = unitVal{}
					}
				default:
					res = unitVal{}
				}
				uc.store(f, lhs, res, emit)
			}
		}
	case *ast.ReturnStmt:
		for _, r := range n.Results {
			v := uc.eval(f, r, emit)
			if inDecl && len(n.Results) == 1 && isFloat(uc.p.info.TypeOf(r)) {
				uc.sums.proposeRet(uc.fn, v.u)
			}
		}
	case *ast.RangeStmt:
		uc.eval(f, n.X, emit)
		for _, e := range []ast.Expr{n.Key, n.Value} {
			if e != nil {
				uc.store(f, e, unitVal{}, nil)
			}
		}
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					v := unitVal{}
					if i < len(vs.Values) {
						v = uc.eval(f, vs.Values[i], emit)
					}
					uc.store(f, name, v, emit)
				}
			}
		}
	case *ast.IncDecStmt:
		uc.eval(f, n.X, emit)
	case *ast.SendStmt:
		uc.eval(f, n.Chan, emit)
		uc.eval(f, n.Value, emit)
	case *ast.ExprStmt:
		uc.eval(f, n.X, emit)
	case *ast.GoStmt:
		uc.eval(f, n.Call, emit)
	case *ast.DeferStmt:
		uc.eval(f, n.Call, emit)
	case ast.Expr:
		uc.eval(f, n, emit)
	case *ast.LabeledStmt, *ast.BranchStmt, *ast.EmptyStmt:
		// no expressions
	default:
		// TypeSwitch assign and other stray statements: evaluate contained
		// expressions shallowly for sink coverage.
		shallowInspect(n, func(m ast.Node) bool {
			if call, ok := m.(*ast.CallExpr); ok {
				uc.eval(f, call, emit)
				return false
			}
			return true
		})
	}
	return f
}

// store writes a value into an assignable expression: identifiers update the
// fact; known-unit field stores are checked as sinks.
func (uc *unitChecker) store(f unitFact, lhs ast.Expr, v unitVal, emit func(ast.Node, string, string)) {
	switch lhs := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if lhs.Name == "_" {
			return
		}
		obj := uc.p.info.Defs[lhs]
		if obj == nil {
			obj = uc.p.info.Uses[lhs]
		}
		if obj == nil {
			return
		}
		if !isFloat(obj.Type()) {
			return
		}
		f[obj] = v
	case *ast.SelectorExpr:
		if field, ok := uc.p.info.Uses[lhs.Sel].(*types.Var); ok && field.IsField() {
			if want := fieldUnit(field); want != unitNone {
				uc.sink(v, want, lhs, fmt.Sprintf("store into %s field %s", want, field.Name()), emit)
			}
		}
	}
}

// eval computes the abstract unit value of an expression, reporting sink
// mismatches and unit mixing along the way when emit is non-nil.
func (uc *unitChecker) eval(f unitFact, e ast.Expr, emit func(ast.Node, string, string)) unitVal {
	switch e := e.(type) {
	case *ast.ParenExpr:
		return uc.eval(f, e.X, emit)
	case *ast.Ident:
		obj := uc.p.info.Uses[e]
		if obj == nil {
			obj = uc.p.info.Defs[e]
		}
		v, ok := obj.(*types.Var)
		if !ok || !isFloat(v.Type()) {
			return unitVal{}
		}
		if val, tracked := f[obj]; tracked {
			return val
		}
		if u := suffixUnit(v.Name()); u != unitNone {
			return unitVal{u: u}
		}
		if idx, isParam := uc.params[v]; isParam && idx < 64 {
			return unitVal{mask: 1 << idx}
		}
		return unitVal{}
	case *ast.SelectorExpr:
		if field, ok := uc.p.info.Uses[e.Sel].(*types.Var); ok && field.IsField() {
			uc.eval(f, e.X, emit)
			return unitVal{u: fieldUnit(field)}
		}
		if c, ok := uc.p.info.Uses[e.Sel].(*types.Const); ok {
			return unitVal{u: constUnit(c)}
		}
		return unitVal{}
	case *ast.CallExpr:
		return uc.evalCall(f, e, emit)
	case *ast.BinaryExpr:
		l := uc.eval(f, e.X, emit)
		r := uc.eval(f, e.Y, emit)
		switch e.Op {
		case token.ADD, token.SUB:
			uc.checkMix(l, r, e, emit)
			uc.inferFromPair(l, r)
			res := l
			if res.u == unitNone {
				res.u = r.u
			}
			res.mask |= r.mask
			return res
		case token.MUL, token.QUO:
			// Scaling by a constant keeps the unit (2*theta is still
			// radians) — unless the constant is a recognized conversion
			// factor (pi/180, 180/pi, 1000, ...), in which case the author
			// is converting manually and the checker forgets the unit
			// rather than flagging the converted value downstream.
			// Multiplying two runtime values forgets it too.
			if uc.isConst(e.Y) {
				if uc.isConversionFactor(e.Y) {
					return unitVal{mask: l.mask}
				}
				return l
			}
			if uc.isConst(e.X) && e.Op == token.MUL {
				if uc.isConversionFactor(e.X) {
					return unitVal{mask: r.mask}
				}
				return r
			}
			return unitVal{}
		case token.LSS, token.GTR, token.LEQ, token.GEQ, token.EQL, token.NEQ:
			uc.checkMix(l, r, e, emit)
			uc.inferFromPair(l, r)
			return unitVal{}
		}
		return unitVal{}
	case *ast.UnaryExpr:
		v := uc.eval(f, e.X, emit)
		if e.Op == token.SUB || e.Op == token.ADD {
			return v
		}
		return unitVal{}
	case *ast.IndexExpr:
		uc.eval(f, e.X, emit)
		uc.eval(f, e.Index, emit)
		return unitVal{}
	case *ast.CompositeLit:
		uc.evalCompositeLit(f, e, emit)
		return unitVal{}
	case *ast.StarExpr:
		uc.eval(f, e.X, emit)
		return unitVal{}
	case *ast.TypeAssertExpr:
		uc.eval(f, e.X, emit)
		return unitVal{}
	case *ast.SliceExpr:
		uc.eval(f, e.X, emit)
		return unitVal{}
	case *ast.FuncLit:
		return unitVal{} // analyzed as its own CFG
	}
	return unitVal{}
}

// evalCompositeLit checks stores into known-unit struct fields, both keyed
// and positional.
func (uc *unitChecker) evalCompositeLit(f unitFact, lit *ast.CompositeLit, emit func(ast.Node, string, string)) {
	t := uc.p.info.TypeOf(lit)
	var st *types.Struct
	if t != nil {
		if s, ok := t.Underlying().(*types.Struct); ok {
			st = s
		}
	}
	for i, elt := range lit.Elts {
		var field *types.Var
		value := elt
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			value = kv.Value
			if id, ok := kv.Key.(*ast.Ident); ok {
				if fv, ok := uc.p.info.Uses[id].(*types.Var); ok && fv.IsField() {
					field = fv
				}
			}
		} else if st != nil && i < st.NumFields() {
			field = st.Field(i)
		}
		v := uc.eval(f, value, emit)
		if field != nil {
			if want := fieldUnit(field); want != unitNone {
				uc.sink(v, want, value, fmt.Sprintf("store into %s field %s", want, field.Name()), emit)
			}
		}
	}
}

// evalCall handles conversions, the builtin source/sink table, and
// module-local calls with inferred parameter expectations.
func (uc *unitChecker) evalCall(f unitFact, call *ast.CallExpr, emit func(ast.Node, string, string)) unitVal {
	// Type conversions (float64(x) and friends) keep the operand's unit.
	if tv, ok := uc.p.info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		return uc.eval(f, call.Args[0], emit)
	}
	fn := resolveCallee(uc.p.info, call)
	if fn == nil {
		for _, a := range call.Args {
			uc.eval(f, a, emit)
		}
		return unitVal{}
	}
	pkgPath := ""
	if fn.Pkg() != nil {
		pkgPath = fn.Pkg().Path()
	}
	sig, _ := fn.Type().(*types.Signature)
	arg := func(i int) unitVal {
		if i < len(call.Args) {
			return uc.eval(f, call.Args[i], emit)
		}
		return unitVal{}
	}
	// Builtin converter/source/sink table.
	if strings.HasSuffix(pkgPath, "internal/geom") && sig != nil && sig.Recv() == nil {
		switch fn.Name() {
		case "Rad":
			uc.sink(arg(0), unitDeg, call, "geom.Rad converts degrees to radians", emit)
			return unitVal{u: unitRad}
		case "Deg":
			uc.sink(arg(0), unitRad, call, "geom.Deg converts radians to degrees", emit)
			return unitVal{u: unitDeg}
		}
	}
	if pkgPath == "math" {
		switch fn.Name() {
		case "Sin", "Cos", "Tan", "Sincos":
			uc.sink(arg(0), unitRad, call, "math."+fn.Name()+" takes radians", emit)
			for i := 1; i < len(call.Args); i++ {
				arg(i)
			}
			return unitVal{}
		case "Asin", "Acos", "Atan":
			arg(0)
			return unitVal{u: unitRad}
		case "Atan2":
			arg(0)
			arg(1)
			return unitVal{u: unitRad}
		case "Abs", "Mod", "Remainder", "Floor", "Ceil", "Round", "Max", "Min":
			v := arg(0)
			for i := 1; i < len(call.Args); i++ {
				arg(i)
			}
			return unitVal{u: v.u, mask: v.mask}
		}
	}
	if strings.HasSuffix(pkgPath, "internal/sim") {
		if sig != nil && sig.Recv() == nil && fn.Name() == "Seconds" {
			uc.sink(arg(0), unitSeconds, call, "sim.Seconds takes seconds", emit)
			return unitVal{}
		}
		if sig != nil && sig.Recv() != nil && fn.Name() == "Seconds" {
			uc.eval(f, call.Fun, emit)
			return unitVal{u: unitSeconds}
		}
	}
	if sig != nil && sig.Recv() != nil && strings.HasSuffix(pkgPath, "internal/geom") {
		if _, recv, ok := namedType(sig.Recv().Type()); ok && recv == "Vec3" &&
			(fn.Name() == "Distance" || fn.Name() == "Norm") {
			for i := range call.Args {
				arg(i)
			}
			return unitVal{u: unitMeters}
		}
	}
	// Module-local call: check arguments against inferred expectations and
	// record expectations induced by tainted parameters of the caller.
	for i := range call.Args {
		v := arg(i)
		want := uc.sums.expectation(fn, i)
		if want != unitNone {
			uc.sink(v, want, call.Args[i],
				fmt.Sprintf("parameter %d of %s expects %s", i, fn.Name(), want), emit)
		}
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		uc.eval(f, sel.X, nil) // receiver sub-expressions, once, silently
	}
	return unitVal{u: uc.sums.ret[fn]}
}

// sink checks a value arriving where `want` is expected: a different known
// unit is a finding; an unknown value tainted by caller parameters records
// an expectation for those parameters.
func (uc *unitChecker) sink(v unitVal, want unit, at ast.Node, what string, emit func(ast.Node, string, string)) {
	if v.u != unitNone && v.u != want {
		if emit != nil {
			emit(at, checkUnitSafety, fmt.Sprintf("%s value reaches a %s sink (%s)", v.u, want, what))
		}
		return
	}
	if v.u == unitNone {
		inferMask(uc.sums, uc.fn, v.mask, want)
	}
}

// checkMix reports additive/comparative mixing of two different known units.
func (uc *unitChecker) checkMix(l, r unitVal, at ast.Node, emit func(ast.Node, string, string)) {
	if l.u != unitNone && r.u != unitNone && l.u != r.u && emit != nil {
		emit(at, checkUnitSafety, fmt.Sprintf("expression mixes %s and %s", l.u, r.u))
	}
}

// inferFromPair records expectations when one operand has a known unit and
// the other is parameter-tainted (adding meters to a parameter makes the
// parameter meters).
func (uc *unitChecker) inferFromPair(l, r unitVal) {
	if l.u != unitNone && r.u == unitNone {
		inferMask(uc.sums, uc.fn, r.mask, l.u)
	}
	if r.u != unitNone && l.u == unitNone {
		inferMask(uc.sums, uc.fn, l.mask, r.u)
	}
}

// isConst reports whether e is a compile-time constant (unit-less scale
// factor).
func (uc *unitChecker) isConst(e ast.Expr) bool {
	tv, ok := uc.p.info.Types[ast.Unparen(e)]
	return ok && tv.Value != nil
}

// conversionFactors are the constant scale factors that CHANGE a value's
// unit rather than merely scaling it: degree<->radian and meter<->kilometer.
var conversionFactors = []float64{
	math.Pi / 180, 180 / math.Pi, 180, 1000,
}

// isConversionFactor reports whether e is a constant whose value (or
// reciprocal) is a known unit-conversion factor.
func (uc *unitChecker) isConversionFactor(e ast.Expr) bool {
	tv, ok := uc.p.info.Types[ast.Unparen(e)]
	if !ok || tv.Value == nil {
		return false
	}
	v, ok := constant.Float64Val(constant.ToFloat(tv.Value))
	if !ok || v == 0 {
		return false
	}
	for _, f := range conversionFactors {
		for _, cand := range []float64{v, 1 / v, -v} {
			if math.Abs(cand-f) <= 1e-9*f {
				return true
			}
		}
	}
	return false
}

// isUnitConverter reports whether fn is geom.Rad or geom.Deg.
func isUnitConverter(fn *types.Func) bool {
	if fn.Pkg() == nil || !strings.HasSuffix(fn.Pkg().Path(), "internal/geom") {
		return false
	}
	return fn.Name() == "Rad" || fn.Name() == "Deg"
}

// knownUnitFields maps (import-path suffix, field name) to the documented
// unit of fields the orbit math relies on.
var knownUnitFields = map[[2]string]unit{
	{"internal/orbit", "Inclination"}:   unitRad,
	{"internal/orbit", "RAAN"}:          unitRad,
	{"internal/orbit", "ArgPerigee"}:    unitRad,
	{"internal/orbit", "MeanAnomaly"}:   unitRad,
	{"internal/orbit", "SemiMajorAxis"}: unitMeters,
	{"internal/geom", "Lat"}:            unitRad,
	{"internal/geom", "Lon"}:            unitRad,
	{"internal/geom", "Alt"}:            unitMeters,
	{"internal/geom", "Elevation"}:      unitRad,
	{"internal/geom", "Azimuth"}:        unitRad,
}

// fieldUnit returns the unit a struct field carries, by table or by name
// suffix.
func fieldUnit(field *types.Var) unit {
	if field.Pkg() != nil {
		path := field.Pkg().Path()
		for key, u := range knownUnitFields {
			if strings.HasSuffix(path, key[0]) && field.Name() == key[1] {
				return u
			}
		}
	}
	return suffixUnit(field.Name())
}

// suffixUnit maps conventional identifier suffixes to units. Lower-case
// whole names ("deg", "km") count; embedded fragments do not, so "spread"
// or "gradient" never taint.
func suffixUnit(name string) unit {
	switch {
	case strings.HasSuffix(name, "Deg") || name == "deg" || name == "degrees":
		return unitDeg
	case strings.HasSuffix(name, "Rad") || name == "rad" || name == "radians":
		return unitRad
	case strings.HasSuffix(name, "Km") || name == "km":
		return unitKm
	}
	return unitNone
}

// constUnit returns the unit of known package-level constants.
func constUnit(c *types.Const) unit {
	if c.Pkg() != nil && strings.HasSuffix(c.Pkg().Path(), "internal/geom") && c.Name() == "EarthRadius" {
		return unitMeters
	}
	return unitNone
}
