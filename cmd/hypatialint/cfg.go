package main

// Per-function control-flow graph construction. The flow-sensitive check
// families (lifecycle, unitsafety, handlesafety) run a forward dataflow
// (dataflow.go) over this CFG instead of inspecting statements in isolation.
//
// Shape: blocks hold only "simple" nodes — plain statements and the
// sub-expressions of compound statements (an if condition, a switch tag, a
// range header) — in execution order; compound bodies are expanded into
// their own blocks. A transfer function therefore walks a block's nodes with
// shallowInspect, which never descends into a nested body or a function
// literal (both are analyzed as their own CFGs).
//
// Approximations, chosen to keep the engine small and the findings
// suppressible rather than exhaustive:
//
//   - Deferred calls are modeled as running once, in LIFO order, in the
//     single exit block that every return reaches. A conditionally executed
//     defer is treated as always running.
//   - panic(...), os.Exit(...), and check.Failf(...) terminate their block
//     with no successor: paths that die do not reach the exit block, so the
//     lifecycle leak check does not charge them with leaking.
//   - goto marks the CFG unstructured; flow-sensitive checks skip such
//     functions (the repo has none).

import (
	"go/ast"
	"go/types"
)

// cfgBlock is one basic block: nodes executed in order, then a jump to one
// of succs (empty succs on a dead end such as panic).
type cfgBlock struct {
	index int
	nodes []ast.Node
	succs []*cfgBlock
}

// funcCFG is the control-flow graph of one function body.
type funcCFG struct {
	entry  *cfgBlock
	exit   *cfgBlock // virtual exit; deferred calls are replayed here
	blocks []*cfgBlock
	// unstructured is set when the body contains goto; block structure is
	// then unreliable and flow-sensitive checks skip the function.
	unstructured bool
}

// cfgLoop is one enclosing breakable/continuable construct during build.
type cfgLoop struct {
	label string
	brk   *cfgBlock
	cont  *cfgBlock // nil for switch/select (continue skips them)
}

type cfgBuilder struct {
	g      *funcCFG
	cur    *cfgBlock // nil after a terminator (unreachable code follows)
	loops  []cfgLoop
	defers []*ast.CallExpr
	info   *types.Info
}

// buildCFG constructs the CFG of a function body. info may be nil; it is
// used only to recognize terminating calls (panic, os.Exit, check.Failf).
func buildCFG(body *ast.BlockStmt, info *types.Info) *funcCFG {
	b := &cfgBuilder{g: &funcCFG{}, info: info}
	b.g.entry = b.newBlock()
	b.cur = b.g.entry
	b.g.exit = b.newBlock()
	b.stmtList(body.List, "")
	if b.cur != nil {
		b.edge(b.cur, b.g.exit)
	}
	// Deferred calls run on the way out, last-registered first.
	for i := len(b.defers) - 1; i >= 0; i-- {
		b.g.exit.nodes = append(b.g.exit.nodes, b.defers[i])
	}
	return b.g
}

func (b *cfgBuilder) newBlock() *cfgBlock {
	blk := &cfgBlock{index: len(b.g.blocks)}
	b.g.blocks = append(b.g.blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *cfgBlock) {
	from.succs = append(from.succs, to)
}

// add appends a node to the current block, opening a fresh (unreachable)
// block when the previous statement was a terminator.
func (b *cfgBuilder) add(n ast.Node) {
	if n == nil {
		return
	}
	if b.cur == nil {
		b.cur = b.newBlock()
	}
	b.cur.nodes = append(b.cur.nodes, n)
}

func (b *cfgBuilder) stmtList(list []ast.Stmt, label string) {
	// The label parameter exists so LabeledStmt can hand its label to the
	// loop/switch it wraps; plain lists pass "".
	for _, s := range list {
		b.stmt(s, label)
		label = ""
	}
}

func (b *cfgBuilder) stmt(s ast.Stmt, label string) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List, "")
	case *ast.LabeledStmt:
		b.stmt(s.Stmt, s.Label.Name)
	case *ast.IfStmt:
		b.add(s.Init)
		b.add(s.Cond)
		condBlk := b.cur
		thenBlk := b.newBlock()
		merge := b.newBlock()
		b.edge(condBlk, thenBlk)
		b.cur = thenBlk
		b.stmtList(s.Body.List, "")
		if b.cur != nil {
			b.edge(b.cur, merge)
		}
		if s.Else != nil {
			elseBlk := b.newBlock()
			b.edge(condBlk, elseBlk)
			b.cur = elseBlk
			b.stmt(s.Else, "")
			if b.cur != nil {
				b.edge(b.cur, merge)
			}
		} else {
			b.edge(condBlk, merge)
		}
		b.cur = merge
	case *ast.ForStmt:
		b.add(s.Init)
		head := b.newBlock()
		if b.cur != nil {
			b.edge(b.cur, head)
		}
		after := b.newBlock()
		post := b.newBlock()
		b.cur = head
		if s.Cond != nil {
			b.add(s.Cond)
			b.edge(head, after)
		}
		body := b.newBlock()
		b.edge(head, body)
		b.loops = append(b.loops, cfgLoop{label: label, brk: after, cont: post})
		b.cur = body
		b.stmtList(s.Body.List, "")
		if b.cur != nil {
			b.edge(b.cur, post)
		}
		b.loops = b.loops[:len(b.loops)-1]
		b.cur = post
		b.add(s.Post)
		b.edge(post, head)
		b.cur = after
	case *ast.RangeStmt:
		head := b.newBlock()
		if b.cur != nil {
			b.edge(b.cur, head)
		}
		after := b.newBlock()
		b.cur = head
		// The RangeStmt node stands for the header (key/value binding from
		// X); shallowInspect visits Key, Value, and X only.
		b.add(s)
		b.edge(head, after)
		body := b.newBlock()
		b.edge(head, body)
		b.loops = append(b.loops, cfgLoop{label: label, brk: after, cont: head})
		b.cur = body
		b.stmtList(s.Body.List, "")
		if b.cur != nil {
			b.edge(b.cur, head)
		}
		b.loops = b.loops[:len(b.loops)-1]
		b.cur = after
	case *ast.SwitchStmt:
		b.add(s.Init)
		b.add(s.Tag)
		b.switchBody(s.Body, label, false)
	case *ast.TypeSwitchStmt:
		b.add(s.Init)
		b.add(s.Assign)
		b.switchBody(s.Body, label, false)
	case *ast.SelectStmt:
		b.switchBody(s.Body, label, true)
	case *ast.ReturnStmt:
		b.add(s)
		if b.cur != nil {
			b.edge(b.cur, b.g.exit)
		}
		b.cur = nil
	case *ast.BranchStmt:
		b.branch(s)
	case *ast.DeferStmt:
		// The defer's receiver and arguments are evaluated here; the call
		// itself is replayed in the exit block.
		b.add(s)
		b.defers = append(b.defers, s.Call)
	case *ast.ExprStmt:
		b.add(s)
		if callTerminates(s.X, b.info) {
			b.cur = nil
		}
	case nil:
		// absent init/post clause
	default:
		// GoStmt, AssignStmt, IncDecStmt, SendStmt, DeclStmt, EmptyStmt, ...
		b.add(s)
	}
}

// switchBody lowers the case clauses of a switch/type-switch/select: the
// head branches to every clause; each clause falls out to the merge block.
func (b *cfgBuilder) switchBody(body *ast.BlockStmt, label string, isSelect bool) {
	head := b.cur
	if head == nil {
		head = b.newBlock()
		b.cur = head
	}
	merge := b.newBlock()
	b.loops = append(b.loops, cfgLoop{label: label, brk: merge})
	hasDefault := false
	var clauseBlks []*cfgBlock
	var clauseBodies [][]ast.Stmt
	for _, cs := range body.List {
		blk := b.newBlock()
		b.edge(head, blk)
		clauseBlks = append(clauseBlks, blk)
		switch cs := cs.(type) {
		case *ast.CaseClause:
			if cs.List == nil {
				hasDefault = true
			}
			b.cur = blk
			for _, e := range cs.List {
				b.add(e)
			}
			clauseBodies = append(clauseBodies, cs.Body)
		case *ast.CommClause:
			hasDefault = hasDefault || cs.Comm == nil
			b.cur = blk
			b.add(cs.Comm)
			clauseBodies = append(clauseBodies, cs.Body)
		}
	}
	for i, blk := range clauseBlks {
		b.cur = blk // clause exprs already recorded; body appends after them
		b.stmtListFallthrough(clauseBodies[i], clauseBlks, i, merge)
	}
	// Without a default clause a switch may match nothing and fall through;
	// a select without default blocks until some clause fires.
	if !hasDefault && !isSelect {
		b.edge(head, merge)
	}
	b.loops = b.loops[:len(b.loops)-1]
	b.cur = merge
}

// stmtListFallthrough lowers one case body, wiring fallthrough to the next
// clause block and plain completion to the merge block.
func (b *cfgBuilder) stmtListFallthrough(list []ast.Stmt, clauses []*cfgBlock, i int, merge *cfgBlock) {
	for _, s := range list {
		if br, ok := s.(*ast.BranchStmt); ok && br.Tok.String() == "fallthrough" {
			if b.cur != nil && i+1 < len(clauses) {
				b.edge(b.cur, clauses[i+1])
			}
			b.cur = nil
			return
		}
		b.stmt(s, "")
	}
	if b.cur != nil {
		b.edge(b.cur, merge)
	}
}

// branch lowers break/continue/goto.
func (b *cfgBuilder) branch(s *ast.BranchStmt) {
	label := ""
	if s.Label != nil {
		label = s.Label.Name
	}
	switch s.Tok.String() {
	case "break":
		for i := len(b.loops) - 1; i >= 0; i-- {
			if label == "" || b.loops[i].label == label {
				if b.cur != nil {
					b.edge(b.cur, b.loops[i].brk)
				}
				b.cur = nil
				return
			}
		}
		b.cur = nil
	case "continue":
		for i := len(b.loops) - 1; i >= 0; i-- {
			if b.loops[i].cont != nil && (label == "" || b.loops[i].label == label) {
				if b.cur != nil {
					b.edge(b.cur, b.loops[i].cont)
				}
				b.cur = nil
				return
			}
		}
		b.cur = nil
	case "goto":
		b.g.unstructured = true
		b.cur = nil
	}
}

// callTerminates reports whether the expression statement never returns:
// panic, os.Exit, runtime.Goexit, log.Fatal*, or the project's check.Failf.
func callTerminates(e ast.Expr, info *types.Info) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		if info == nil {
			return false
		}
		fn, ok := info.Uses[fun.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil {
			return false
		}
		switch fn.Pkg().Path() {
		case "os":
			return fn.Name() == "Exit"
		case "runtime":
			return fn.Name() == "Goexit"
		case "log":
			return fn.Name() == "Fatal" || fn.Name() == "Fatalf" || fn.Name() == "Fatalln"
		}
		if fn.Name() == "Failf" && fn.Pkg().Name() == "check" {
			return true
		}
	}
	return false
}

// preds computes the predecessor lists of every block.
func (g *funcCFG) preds() map[*cfgBlock][]*cfgBlock {
	p := make(map[*cfgBlock][]*cfgBlock, len(g.blocks))
	for _, blk := range g.blocks {
		for _, s := range blk.succs {
			p[s] = append(p[s], blk)
		}
	}
	return p
}

// reachable returns the set of blocks reachable from entry.
func (g *funcCFG) reachable() map[*cfgBlock]bool {
	seen := map[*cfgBlock]bool{}
	stack := []*cfgBlock{g.entry}
	for len(stack) > 0 {
		blk := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[blk] {
			continue
		}
		seen[blk] = true
		stack = append(stack, blk.succs...)
	}
	return seen
}

// shallowInspect visits n and its sub-expressions in the spirit of
// ast.Inspect, but does not descend into bodies the CFG expands into other
// blocks, nor into function literals (which are analyzed as their own
// functions — the literal node itself is still visited, so a check can react
// to captures). A RangeStmt node stands for the loop header: only Key,
// Value, and X are visited.
func shallowInspect(n ast.Node, visit func(ast.Node) bool) {
	var walk func(ast.Node)
	walk = func(m ast.Node) {
		if m == nil {
			return
		}
		if r, ok := m.(*ast.RangeStmt); ok {
			if visit(r) {
				walk(r.Key)
				walk(r.Value)
				walk(r.X)
			}
			return
		}
		ast.Inspect(m, func(k ast.Node) bool {
			if k == nil {
				return true
			}
			switch k.(type) {
			case *ast.FuncLit:
				visit(k)
				return false
			case *ast.BlockStmt, *ast.IfStmt, *ast.ForStmt, *ast.RangeStmt,
				*ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
				if k != m {
					return false
				}
			}
			return visit(k)
		})
	}
	walk(n)
}
