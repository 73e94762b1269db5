// Dynamic shortest-path maintenance: diffing two graphs into a changed-edge
// list and re-solving an existing single-source shortest-path tree in the
// previous solution's settle order instead of recomputing it from scratch.
//
// The forwarding-state engine rebuilds its topology graph every update
// instant, and between consecutive instants nearly every link weight drifts
// — but the order in which Dijkstra settles the nodes barely moves.
// RepairSSSPDense exploits that: one sweep over the carried order relaxes
// every edge with no heap, and Dijkstra proper runs only over the nodes the
// drift actually reordered. The repaired arrays are bitwise identical to a
// fresh DijkstraScratch run on the new graph — Dijkstra's output is a
// canonical function of the graph (distances are the minimum over paths of
// left-associated float sums; predecessors are the (dist, id)-minimal
// achiever of each distance), and the repair converges to the same fixpoint.
// The differential and property tests in dynamic_test.go hold it to exactly
// that bar.
//
// All functions assume simple graphs (no parallel edges), which the
// topology builders guarantee by construction.

package graph

import (
	"fmt"
	"math"
)

// EdgeChange records one undirected edge (A < B) that differs between an
// old and a new graph over the same node set. A negative weight encodes
// absence: OldW < 0 means the edge was inserted, NewW < 0 means it was
// removed; otherwise the weight changed from OldW to NewW.
type EdgeChange struct {
	A, B       int32 //hypatia:handle(node)
	OldW, NewW float64
}

// DiffScratch holds the per-node weight slots DiffInto reuses across calls.
// The zero value is ready for use; a DiffScratch must not be shared between
// concurrent DiffInto calls.
type DiffScratch struct {
	w     []float64 //hypatia:handle(node)
	stamp []int64   //hypatia:handle(node)
	gen   int64
}

// DiffInto appends to out[:0] every edge that differs between old and new
// (same node count required) and returns the slice. Weights are compared
// bitwise: the topology builders recompute identical geometry identically,
// so an unchanged link produces an unchanged float.
//
//hypatia:noalloc
//hypatia:pure
func DiffInto(oldG, newG *Graph, out []EdgeChange, sc *DiffScratch) []EdgeChange {
	if oldG.n != newG.n {
		panic(fmt.Sprintf("graph: diff over different node counts %d vs %d", oldG.n, newG.n))
	}
	n := oldG.n
	if cap(sc.stamp) < n {
		sc.stamp = make([]int64, n)
		sc.w = make([]float64, n)
	}
	sc.stamp = sc.stamp[:n]
	sc.w = sc.w[:n]
	out = out[:0]
	for v := 0; v < n; v++ { //hypatia:handle(node) diff walks nodes in id order
		sc.gen++
		g := sc.gen
		oldAdj := oldG.adj[v]
		for _, e := range oldAdj {
			if int(e.To) > v {
				sc.w[e.To] = e.W
				sc.stamp[e.To] = g
			}
		}
		for _, e := range newG.adj[v] {
			if int(e.To) <= v {
				continue
			}
			if sc.stamp[e.To] == g {
				//lint:ignore timeunits bitwise weight identity is the diff criterion
				if sc.w[e.To] != e.W {
					out = append(out, EdgeChange{A: int32(v), B: e.To, OldW: sc.w[e.To], NewW: e.W})
				}
				sc.stamp[e.To] = ^g // matched; ^g never collides with a future gen
			} else {
				out = append(out, EdgeChange{A: int32(v), B: e.To, OldW: -1, NewW: e.W})
			}
		}
		for _, e := range oldAdj {
			if int(e.To) > v && sc.stamp[e.To] == g {
				out = append(out, EdgeChange{A: int32(v), B: e.To, OldW: e.W, NewW: -1})
				sc.stamp[e.To] = ^g
			}
		}
	}
	return out
}

// RepairScratch holds the reusable workspaces of RepairSSSPDense: the
// Dijkstra heap for the reordered region, the swept-node epochs, and the
// list of nodes that saw a tied offer. The zero value is ready for use; a
// RepairScratch must not be shared between concurrent repairs.
type RepairScratch struct {
	h        indexedHeap
	tieList  []int32 //hypatia:handle(->node)
	stampArr []int64 //hypatia:handle(node)
	stampGen int64
}

// orderCmp is the settle-order comparator: by distance, then node id —
// exactly Dijkstra's pop order.
//
//hypatia:noalloc
//hypatia:pure
//hypatia:handle(dist: node, a: node, b: node)
func orderCmp(dist []float64, a, b int32) int {
	da, db := dist[a], dist[b]
	if da < db {
		return -1
	}
	if da > db {
		return 1
	}
	return int(a) - int(b)
}

// sortByDist sorts order into Dijkstra's settle order for dist (orderCmp):
// an in-place heapsort. The comparator's key (dist, id) is unique per node,
// so any comparison sort yields the same permutation; heapsort keeps the
// lazy order refresh allocation-free and, unlike slices.SortFunc, inside
// the machine-checked purity contract.
//
//hypatia:noalloc
//hypatia:pure
//hypatia:handle(order: ->node, dist: node)
func sortByDist(order []int32, dist []float64) {
	n := len(order)
	for root := n/2 - 1; root >= 0; root-- {
		siftDownOrder(order, dist, root, n)
	}
	for end := n - 1; end > 0; end-- {
		order[0], order[end] = order[end], order[0]
		siftDownOrder(order, dist, 0, end)
	}
}

// siftDownOrder restores the max-heap property under orderCmp for the
// subtree of order[:n] rooted at root.
//
//hypatia:noalloc
//hypatia:pure
//hypatia:handle(order: ->node, dist: node)
func siftDownOrder(order []int32, dist []float64, root, n int) {
	for {
		child := 2*root + 1
		if child >= n {
			return
		}
		if r := child + 1; r < n && orderCmp(dist, order[r], order[child]) > 0 {
			child = r
		}
		if orderCmp(dist, order[child], order[root]) <= 0 {
			return
		}
		order[root], order[child] = order[child], order[root]
		root = child
	}
}

// RepairSSSPDense re-solves single-source shortest paths from src for the
// total-drift case: every weight may have changed (the constellation case —
// all inter-satellite distances move every instant) but the settle order
// barely does. It is Dijkstra with the priority queue replaced by order, the
// previous solution's settle order: one sweep relaxes each node's edges at
// its old position, and the heap is engaged only for nodes the drift
// actually reordered (an improvement arriving after a node was swept). dist
// and prev are fully rewritten — their prior contents may be arbitrary;
// all the carried-over state lives in order, which must be a permutation of
// the nodes and is refreshed in place toward the new solution's settle
// order whenever drift has degraded it, ready for the next repair. A bad
// order (identity on first use, stale after a coarse time jump) costs extra
// heap work, never correctness.
//
// The result is bitwise identical to DijkstraScratch regardless of order:
// the relaxation fixpoint — distances as minima over paths of
// left-associated float sums — does not depend on sweep order, every node
// whose distance improves post-sweep is re-settled through the heap, and
// predecessors are re-canonicalized whenever a tie was observed. A stale
// order costs time, never correctness.
//
//hypatia:noalloc
//hypatia:pure
//hypatia:handle(src: node, dist: node, prev: node->node, order: ->node)
func (g *Graph) RepairSSSPDense(src int, dist []float64, prev []int32, order []int32, sc *RepairScratch) {
	n := g.n
	if src < 0 || src >= n {
		panic(fmt.Sprintf("graph: source %d out of range", src))
	}
	if len(dist) != n || len(prev) != n || len(order) != n {
		panic(fmt.Sprintf("graph: repair arrays sized %d/%d/%d for %d nodes", len(dist), len(prev), len(order), n))
	}
	if cap(sc.stampArr) < n {
		sc.stampArr = make([]int64, n)
	}
	sc.stampArr = sc.stampArr[:n]
	off, csrTo, csrW := g.csr()
	stamp := sc.stampArr

	for i := range dist {
		dist[i] = Infinity
		prev[i] = -1
	}
	dist[src] = 0
	prev[src] = int32(src)

	sc.stampGen++
	tg := sc.stampGen
	h := &sc.h
	h.reset(n)
	sc.tieList = sc.tieList[:0]
	swept := 0
	for _, v := range order {
		if stamp[v] != tg {
			stamp[v] = tg
			swept++
		}
		dv := dist[v]
		//lint:ignore timeunits sentinel compare, cheaper than math.IsInf
		if dv == Infinity {
			// Still unreached at its slot (order stale, or genuinely
			// unreachable). Marked swept above: if a later relaxation does
			// reach it, that improvement routes it through the heap.
			continue
		}
		for k, end := off[v], off[v+1]; k < end; k++ {
			to := csrTo[k]
			nd := dv + csrW[k]
			if nd < dist[to] {
				dist[to] = nd
				prev[to] = v
				if stamp[to] == tg {
					h.push(to, nd)
				}
				//lint:ignore timeunits exact equality detects shortest-path ties
			} else if nd == dist[to] && prev[to] != v && int(to) != src {
				sc.tieList = append(sc.tieList, to)
			}
		}
	}
	if swept != n {
		panic(fmt.Sprintf("graph: order covers %d of %d nodes; must be a permutation", swept, n))
	}
	// Settle the reordered region exactly as Dijkstra would, then
	// re-canonicalize the predecessors of every node that saw a tied offer
	// (unique-achiever nodes are already canonical). Every achiever of a
	// node's final distance relaxes its edges at final values at least once
	// — in its sweep slot if it was final by then, from its last heap pop
	// otherwise — so a genuine tie always lands an exact-equality offer and
	// gets listed; false positives (equality against a not-yet-final
	// distance) just trigger an idempotent recanonicalization.
	pops := g.settle(dist, prev, src, sc)
	for _, v := range sc.tieList {
		g.canonicalPrev(src, v, dist, prev)
	}
	// Refresh the order only once drift has audibly degraded it. Inversions
	// among near-equidistant nodes are constant but harmless — a violation
	// needs a node swept before its tree parent, and that takes relative
	// drift on the scale of a link weight — so sorting every repair buys
	// nothing. The settle pop count is the direct measure of order quality;
	// when it grows past n/8 (stale order after a coarse time jump, first
	// use from the identity order) one full sort makes the order tight
	// again. Correctness never depends on this.
	if pops*8 > n {
		sortByDist(order, dist)
	}
}

// settle runs the Dijkstra main loop over whatever sc.h was seeded with,
// appending every node that receives a tied offer to sc.tieList and
// returning the number of heap pops (the repair's measure of how stale its
// sweep order has become).
//
//hypatia:noalloc
//hypatia:pure
//hypatia:handle(dist: node, prev: node->node, src: node)
func (g *Graph) settle(dist []float64, prev []int32, src int, sc *RepairScratch) int {
	h := &sc.h
	pops := 0
	for !h.empty() {
		pops++
		u := h.pop()
		du := dist[u]
		for _, e := range g.adj[u] {
			nd := du + e.W
			if nd < dist[e.To] {
				dist[e.To] = nd
				prev[e.To] = u
				h.push(e.To, nd)
				//lint:ignore timeunits exact equality detects shortest-path ties
			} else if nd == dist[e.To] && prev[e.To] != u && int(e.To) != src {
				sc.tieList = append(sc.tieList, e.To)
			}
		}
	}
	return pops
}

// canonicalPrev recomputes prev[v] as Dijkstra would have chosen it: the
// neighbor u minimizing (dist[u], u) among those whose relaxation achieves
// dist[v] exactly — the first achiever in Dijkstra's deterministic pop
// order.
//
//hypatia:noalloc
//hypatia:pure
//hypatia:handle(src: node, v: node, dist: node, prev: node->node)
func (g *Graph) canonicalPrev(src int, v int32, dist []float64, prev []int32) {
	if int(v) == src {
		prev[v] = int32(src)
		return
	}
	if math.IsInf(dist[v], 1) {
		prev[v] = -1
		return
	}
	best := int32(-1) //hypatia:handle(node) sentinel until the first achiever lands
	for _, e := range g.adj[v] {
		u := e.To
		//lint:ignore timeunits achiever test must match Dijkstra's exact float relaxation
		if dist[u]+e.W != dist[v] {
			continue
		}
		//lint:ignore timeunits exact pop-order tie-break (dist, id)
		if best < 0 || dist[u] < dist[best] || (dist[u] == dist[best] && u < best) {
			best = u
		}
	}
	if best < 0 {
		panic(fmt.Sprintf("graph: repaired distances inconsistent: node %d has dist %v but no achieving neighbor", v, dist[v]))
	}
	prev[v] = best
}

// BellmanFord computes single-source shortest paths by iterated relaxation
// until fixpoint. It is O(V·E) and exists as an algorithmically independent
// cross-check for the Dijkstra and RepairSSSPDense fast paths: on non-negative
// weights all three converge to the same distance fixpoint (the minimum
// over paths of left-associated float sums), so distances must match
// bitwise. Predecessors are some valid shortest-path tree but not the
// canonical one.
func (g *Graph) BellmanFord(src int) ([]float64, []int32) {
	if src < 0 || src >= g.n {
		panic(fmt.Sprintf("graph: source %d out of range", src))
	}
	dist := make([]float64, g.n)
	prev := make([]int32, g.n)
	for i := range dist {
		dist[i] = Infinity
		prev[i] = -1
	}
	dist[src] = 0
	prev[src] = int32(src)
	for changed := true; changed; {
		changed = false
		for v := 0; v < g.n; v++ { //hypatia:handle(node) relaxation sweeps nodes in id order
			dv := dist[v]
			if math.IsInf(dv, 1) {
				continue
			}
			for _, e := range g.adj[v] {
				if nd := dv + e.W; nd < dist[e.To] {
					dist[e.To] = nd
					prev[e.To] = int32(v)
					changed = true
				}
			}
		}
	}
	return dist, prev
}
