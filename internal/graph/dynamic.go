// Dynamic shortest-path maintenance: diffing two graphs into a changed-edge
// list and re-solving an existing single-source shortest-path tree in the
// previous solution's settle order instead of recomputing it from scratch.
//
// The forwarding-state engine rebuilds its topology graph every update
// instant, and between consecutive instants nearly every link weight drifts
// — but the order in which Dijkstra settles the nodes barely moves.
// RepairSSSPDense exploits that: one sweep over the carried order lets every
// node pull its distance from its neighbours with no queue, and Dijkstra
// proper runs only over the nodes the drift actually reordered. On strictly
// positive weights the repaired arrays are bitwise identical to a fresh
// DijkstraScratch run on the new graph — Dijkstra's output is a canonical
// function of the graph (distances are the minimum over paths of
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

	"hypatia/internal/check"
)

// EdgeChange records one undirected edge (A < B) that differs between an
// old and a new graph over the same node set. A negative weight encodes
// absence: OldW < 0 means the edge was inserted, NewW < 0 means it was
// removed; otherwise the weight changed from OldW to NewW.
type EdgeChange struct {
	A, B       int32
	OldW, NewW float64
}

// DiffScratch holds the per-node weight slots DiffInto reuses across calls.
// The zero value is ready for use; a DiffScratch must not be shared between
// concurrent DiffInto calls.
type DiffScratch struct {
	w     []float64
	stamp []int64
	gen   int64
}

// DiffInto appends to out[:0] every edge that differs between old and new
// (same node count required) and returns the slice. Weights are compared
// bitwise: the topology builders recompute identical geometry identically,
// so an unchanged link produces an unchanged float.
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
	for v := 0; v < n; v++ {
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
// Dijkstra queue for the reordered region, the list of nodes that saw a tied
// offer, and the list of nodes nothing had reached when they were swept.
// The zero value is ready for use; a RepairScratch must not be shared
// between concurrent repairs.
type RepairScratch struct {
	q         bucketQueue
	tieList   []int32
	unreached []int32

	// secondPass counts the nodes the sweeps of every repair through this
	// scratch have sent through the second pass: the measure of order
	// quality the refresh rule reads, summed for benchmarks and tests.
	secondPass int
}

// SecondPass returns the number of nodes the repairs through sc have sent
// through the second pass, summed over every repair since sc was made.
func (sc *RepairScratch) SecondPass() int { return sc.secondPass }

// Reserve sizes the scratch for repairs over n nodes, so that the first
// repair allocates as little as the thousandth.
func (sc *RepairScratch) Reserve(n int) {
	sc.q.reserve(n)
	if cap(sc.tieList) < n {
		sc.tieList = make([]int32, 0, n)
	}
	if cap(sc.unreached) < n {
		sc.unreached = make([]int32, 0, n)
	}
}

// orderCmp is the settle-order comparator: by distance, then node id —
// exactly Dijkstra's pop order.
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
// lazy order refresh allocation-free.
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

// tightenOrder sorts order into the same settle order as sortByDist by
// insertion: allocation-free and O(n + inversions), so on an order that
// drift has left almost sorted it costs one pass. On a stale order it is
// quadratic, which is why RepairSSSPDense heap-sorts those instead.
func tightenOrder(order []int32, dist []float64) {
	for i := 1; i < len(order); i++ {
		v := order[i]
		dv := dist[v]
		j := i
		for ; j > 0; j-- {
			u := order[j-1]
			if du := dist[u]; du < dv || (du == dv && u < v) {
				break
			}
			order[j] = u
		}
		order[j] = v
	}
}

// siftDownOrder restores the max-heap property under orderCmp for the
// subtree of order[:n] rooted at root.
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

// Bit patterns the pull sweep orders distances by. Distances are sums of
// non-negative weights starting at +0 — never negative, never NaN — so
// their IEEE-754 bit patterns order exactly as the floats do, compared as
// integers of either signedness. The sweep marks a node it has not reached
// yet with -Inf, whose pattern (sign bit set) is above every distance's as a
// uint64 and below every distance's as an int64: one mark that loses both
// the kernel's unsigned minimum and its signed maximum with no test of its
// own, and that a relaxation's `<` and `==` against it both reject.
const (
	unsweptBits = 0xFFF0000000000000 // math.Float64bits(math.Inf(-1)): not yet swept
	farBits     = 0x7FEFFFFFFFFFFFFF // math.Float64bits(math.MaxFloat64): swept, unreached
)

// pull is the inner loop of RepairSSSPDense's sweep: over one node's
// half-edges it returns, as float bit patterns,
//
//	arg   the neighbour u that made the smallest offer (-1 with no edges),
//	best  that offer, dist[u] + w(u,v) — at or above farBits when no
//	      neighbour swept so far has been reached,
//	tie   the value of the last offer that equalled the running minimum:
//	      tie == best exactly when a second neighbour also offered best,
//	far   the largest dist[u] among neighbours already swept, 0 with none.
//
// Each is one accumulator updated by a conditional move, so the loop has no
// data-dependent branch and no store. The directive keeps it a call: the
// compiler would inline it, and inline the sweep has more live values than
// registers, so the accumulators live on the stack (DESIGN.md, "Incremental
// forwarding state", has the measurement).
//
//go:noinline
func pull(edges []Edge, dist []float64) (arg int32, best, tie, far uint64) {
	arg, best, tie = -1, ^uint64(0), ^uint64(0)
	for _, e := range edges {
		u := e.To
		du := dist[u]
		nd := math.Float64bits(du + e.W)
		db := math.Float64bits(du)
		if nd == best {
			tie = nd
		}
		if nd < best {
			arg, best = u, nd
		}
		if int64(db) > int64(far) {
			far = db
		}
	}
	return arg, best, tie, far
}

// RepairSSSPDense re-solves single-source shortest paths from src for the
// total-drift case: every weight may have changed (the constellation case —
// all inter-satellite distances move every instant) but the settle order
// barely does. It is Dijkstra with the priority queue replaced by order, the
// previous solution's settle order: one sweep visits the nodes at their old
// positions and lets each pull its distance from its neighbours — the
// minimum of dist[u] + w(u,v) over the neighbours swept before it — and the
// queue is engaged only for nodes the drift actually reordered (a node swept
// after a neighbour it improves). dist and prev are fully rewritten — their
// prior contents may be arbitrary; all the carried-over state lives in
// order, which must be a permutation of the nodes and is refreshed in place
// toward the new solution's settle order whenever drift has degraded it,
// ready for the next repair. Repairs over one graph may run concurrently,
// each with its own arrays and scratch, once the graph is frozen (Freeze).
//
// Edge weights must be strictly positive (every topology builder emits
// distances between distinct positions). Then the result is bitwise
// identical to DijkstraScratch regardless of order: the relaxation fixpoint
// — distances as minima over paths of left-associated float sums — does not
// depend on sweep order, every node whose distance improves after its slot
// is re-settled through the queue, and predecessors are re-canonicalized
// whenever a tie was observed. A stale order costs time, never correctness.
// With zero-weight edges the distances are still that fixpoint and prev is
// still a loop-free tree achieving them, but Dijkstra pops a node first
// reached over a zero edge straight after its discoverer whatever its id,
// so its predecessor choice there is not the (dist, id) rule canonicalPrev
// applies (TestRepairZeroWeightEdges).
func (g *Graph) RepairSSSPDense(src int, dist []float64, prev []int32, order []int32, sc *RepairScratch) {
	n := g.n
	if src < 0 || src >= n {
		panic(fmt.Sprintf("graph: source %d out of range", src))
	}
	if len(dist) != n || len(prev) != n || len(order) != n {
		panic(fmt.Sprintf("graph: repair arrays sized %d/%d/%d for %d nodes", len(dist), len(prev), len(order), n))
	}
	off, csr := g.csr()

	// A swept node holds a finite distance, or math.MaxFloat64 while nothing
	// has reached it.
	unswept := math.Inf(-1)
	for i := range dist {
		dist[i] = unswept
	}
	q := &sc.q
	q.reset(n, g.minW, g.maxW)
	sc.tieList = sc.tieList[:0]
	sc.unreached = sc.unreached[:0]
	secondPass := 0
	for _, v := range order {
		if math.Float64bits(dist[v]) != unsweptBits {
			panic(fmt.Sprintf("graph: order lists node %d twice; must be a permutation", v))
		}
		edges := csr[off[v]:off[v+1]]
		arg, best, tie, far := pull(edges, dist)
		if int(v) == src {
			arg, best, tie = v, 0, unsweptBits
		}
		if best >= farBits {
			// Nothing swept so far reaches v (order stale, or v genuinely
			// unreachable): if a later node does, its second pass below
			// finds the mark and routes v through the queue.
			dist[v] = math.MaxFloat64
			prev[v] = -1
			sc.unreached = append(sc.unreached, v)
			continue
		}
		dv := math.Float64frombits(best)
		dist[v] = dv
		prev[v] = arg
		if tie == best {
			sc.tieList = append(sc.tieList, v)
		}
		if far < best {
			continue
		}
		secondPass++
		// The order is stale here: a neighbour swept earlier sits at or
		// beyond v, so v may improve it. Offer v's distance to the swept
		// neighbours the way Dijkstra relaxes, and let the queue re-settle
		// whatever improves.
		for _, e := range edges {
			to := e.To
			dt := dist[to]
			nd := dv + e.W
			if nd < dt {
				dist[to] = nd
				prev[to] = v
				q.push(to, nd)
			} else if nd == dt && prev[to] != v && int(to) != src {
				sc.tieList = append(sc.tieList, to)
			}
		}
	}
	// Settle the reordered region exactly as Dijkstra would, then
	// re-canonicalize the predecessors of every node that saw a tied offer
	// (unique-achiever nodes are already canonical). Every achiever of a
	// node's final distance offers it at its final value at least once — to
	// the node's own pull if it was swept and final by then, from its
	// second pass or its last pop otherwise — so a genuine tie always
	// lands an exact-equality offer and gets listed; false positives
	// (equality against a not-yet-final distance) just trigger an
	// idempotent recanonicalization.
	pops := g.settle(dist, prev, src, sc)
	for _, v := range sc.unreached {
		if math.Float64bits(dist[v]) == farBits {
			dist[v] = Infinity
		}
	}
	if check.Enabled {
		for v, d := range dist {
			check.Assert(math.Float64bits(d) != farBits, "repair from %d: node %d still holds the unreached mark", src, v)
		}
	}
	for _, v := range sc.tieList {
		g.canonicalPrev(src, v, dist, prev)
	}
	// Refresh the order toward this solution's settle order once drift has
	// degraded it; correctness never depends on this. Each node swept at or
	// beyond a neighbour costs a second pass, and from one 100 ms instant
	// to the next such inversions accumulate: left alone, a K1 tree's
	// second pass averages 48 nodes over a chain's first 100 instants and
	// 177 over 800. So a repair whose second pass took more than n/256
	// nodes re-sorts the order by insertion, one pass over an order that is
	// almost sorted (3.0 nodes per tree over 800 instants). An order that
	// sent more than n/8 nodes through the queue is stale (a time jump, an
	// order that was never a settle order), and insertion would be
	// quadratic there: the heapsort takes it. DESIGN.md ("Incremental
	// forwarding state") has the probe that picked the rule.
	switch {
	case pops*8 > n:
		sortByDist(order, dist)
	case secondPass*256 > n:
		tightenOrder(order, dist)
	}
	sc.secondPass += secondPass
}

// settle runs the Dijkstra main loop over whatever sc.q was seeded with,
// appending every node that receives a tied offer to sc.tieList and
// returning the number of pops (the repair's measure of how stale its
// sweep order has become).
func (g *Graph) settle(dist []float64, prev []int32, src int, sc *RepairScratch) int {
	q := &sc.q
	pops := 0
	for !q.empty() {
		pops++
		u := q.pop()
		du := dist[u]
		for _, e := range g.adj[u] {
			nd := du + e.W
			if nd < dist[e.To] {
				dist[e.To] = nd
				prev[e.To] = u
				q.push(e.To, nd)
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
// order. Only achievers strictly closer than v are candidates, which every
// achiever over a positive weight is; an achiever at v's own distance (a
// zero-weight edge) may be v's descendant, so when there is no other the
// predecessor relaxation left — always a loop-free choice — stays.
func (g *Graph) canonicalPrev(src int, v int32, dist []float64, prev []int32) {
	if int(v) == src {
		prev[v] = int32(src)
		return
	}
	if math.IsInf(dist[v], 1) {
		prev[v] = -1
		return
	}
	best := int32(-1) // sentinel until the first achiever lands
	achieved := false
	for _, e := range g.adj[v] {
		u := e.To
		if dist[u]+e.W != dist[v] {
			continue
		}
		achieved = true
		if !(dist[u] < dist[v]) {
			continue
		}
		if best < 0 || dist[u] < dist[best] || (dist[u] == dist[best] && u < best) {
			best = u
		}
	}
	if !achieved {
		panic(fmt.Sprintf("graph: repaired distances inconsistent: node %d has dist %v but no achieving neighbor", v, dist[v]))
	}
	if best >= 0 {
		prev[v] = best
	}
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
		for v := 0; v < g.n; v++ {
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
