package main

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// checkCopyLockPkg enforces mutex/copy safety: values whose type contains a
// sync primitive (anything with a Lock method, matching go vet's rule), the
// simulator engine, or its event queue must never be copied by value — a
// copy forks the lock or the event queue and the two halves silently
// diverge. Flagged sites:
//
//   - function parameters and value receivers declared with such a type,
//   - assignments whose right-hand side is an existing value (not a fresh
//     composite literal or call result),
//   - range clauses that copy such values out of a slice/map/array,
//   - composite-literal elements copying an existing value.
func checkCopyLockPkg(p *pkg, rep *reporter) {
	for _, f := range p.files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Recv != nil {
					checkFieldList(p, n.Recv, "receiver", rep)
				}
				if n.Type.Params != nil {
					checkFieldList(p, n.Type.Params, "parameter", rep)
				}
			case *ast.FuncLit:
				if n.Type.Params != nil {
					checkFieldList(p, n.Type.Params, "parameter", rep)
				}
			case *ast.AssignStmt:
				for i, rhs := range n.Rhs {
					// _ = x discards rather than copies.
					if len(n.Lhs) == len(n.Rhs) {
						if id, ok := n.Lhs[i].(*ast.Ident); ok && id.Name == "_" {
							continue
						}
					}
					checkValueCopy(p, rhs, "assignment copies", rep)
				}
			case *ast.ValueSpec:
				for _, v := range n.Values {
					checkValueCopy(p, v, "variable initialization copies", rep)
				}
			case *ast.CompositeLit:
				for _, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						elt = kv.Value
					}
					checkValueCopy(p, elt, "composite literal copies", rep)
				}
			case *ast.RangeStmt:
				if n.Value != nil {
					if t := p.info.TypeOf(n.Value); t != nil {
						if why, bad := noCopyType(t); bad {
							rep.add(n.Value.Pos(), checkCopyLock,
								fmt.Sprintf("range clause copies %s by value each iteration; range over indices and take pointers", why))
						}
					}
				}
			}
			return true
		})
	}
}

// checkFieldList flags by-value no-copy types in a receiver/parameter list.
func checkFieldList(p *pkg, fields *ast.FieldList, kind string, rep *reporter) {
	for _, field := range fields.List {
		t := p.info.TypeOf(field.Type)
		if t == nil {
			continue
		}
		if _, isPtr := t.(*types.Pointer); isPtr {
			continue
		}
		if why, bad := noCopyType(t); bad {
			rep.add(field.Type.Pos(), checkCopyLock,
				fmt.Sprintf("%s passes %s by value; use a pointer", kind, why))
		}
	}
}

// checkValueCopy flags expressions that copy an existing no-copy value.
// Fresh values — composite literals, call results, conversions — are fine:
// nothing else aliases them yet.
func checkValueCopy(p *pkg, e ast.Expr, how string, rep *reporter) {
	if !isExistingValue(e) {
		return
	}
	t := p.info.TypeOf(e)
	if t == nil {
		return
	}
	if why, bad := noCopyType(t); bad {
		rep.add(e.Pos(), checkCopyLock, fmt.Sprintf("%s %s by value; copy a pointer instead", how, why))
	}
}

// isExistingValue reports whether e denotes a value that already exists
// elsewhere (so copying it forks shared state), as opposed to a freshly
// constructed one.
func isExistingValue(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name != "_"
	case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
		return true
	}
	return false
}

// noCopyType reports whether t must not be copied by value, and names the
// offending component. It matches go vet's copylocks rule — any type whose
// value or pointer method set contains Lock — extended with the simulator
// engine types, whose copies fork the event queue.
func noCopyType(t types.Type) (string, bool) {
	return noCopy(t, map[types.Type]bool{})
}

func noCopy(t types.Type, seen map[types.Type]bool) (string, bool) {
	if t == nil || seen[t] {
		return "", false
	}
	seen[t] = true
	if _, isPtr := t.(*types.Pointer); isPtr {
		return "", false // copying a pointer shares, not forks
	}
	if path, name, ok := namedType(t); ok {
		if types.IsInterface(t.Underlying()) {
			return "", false // interfaces hold references; copying one is fine
		}
		if hasLockMethod(t) {
			return typeLabel(path, name), true
		}
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			ft := u.Field(i).Type()
			// A struct holding the engine's event queue (sim.Simulator) must
			// never be copied: the copy forks the queue — two heaps over one
			// record slab — and the two engines silently diverge.
			if path, name, ok := namedType(ft); ok &&
				strings.HasSuffix(path, "internal/sim") && (name == "eventQueue" || name == "Simulator") {
				return "a struct containing sim." + name + " (the event engine)", true
			}
			if why, bad := noCopy(ft, seen); bad {
				return why, true
			}
		}
	case *types.Array:
		return noCopy(u.Elem(), seen)
	}
	return "", false
}

// hasLockMethod reports whether *T has a Lock method (vet's copylocks
// heuristic for "this is a lock").
func hasLockMethod(t types.Type) bool {
	if _, isPtr := t.(*types.Pointer); !isPtr {
		t = types.NewPointer(t)
	}
	m, _, _ := types.LookupFieldOrMethod(t, false, nil, "Lock")
	fn, ok := m.(*types.Func)
	if !ok {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Params().Len() == 0 && sig.Results().Len() == 0
}

func typeLabel(path, name string) string {
	if i := strings.LastIndex(path, "/"); i >= 0 {
		path = path[i+1:]
	}
	if path == "" {
		return name
	}
	return path + "." + name
}
