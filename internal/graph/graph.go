// Package graph implements the weighted-graph algorithms behind Hypatia's
// routing: single-source shortest paths (Dijkstra over a bucket queue, used
// per destination ground station for scalable forwarding-state generation)
// and all-pairs shortest paths (Floyd–Warshall, the algorithm the paper's
// networkx-based pipeline uses, retained both for fidelity and as a
// cross-check of the Dijkstra fast path).
//
// Graphs are undirected with non-negative float64 weights (link distances in
// meters, so shortest distance = lowest propagation latency). Node identity
// and edge insertion order are deterministic, which makes path selection
// reproducible across runs.
package graph

import (
	"fmt"
	"math"
	"math/bits"

	"hypatia/internal/check"
)

// Infinity is the distance reported for unreachable nodes.
var Infinity = math.Inf(1)

// Edge is a half-edge in an adjacency list.
type Edge struct {
	To int32
	W  float64
}

// Graph is an undirected weighted graph over nodes 0..N-1.
type Graph struct {
	n   int
	adj [][]Edge

	// The least positive and the largest edge weight (0 while there is
	// none), which size the Dijkstra queue's buckets. AddEdge keeps them, so
	// a Dijkstra only reads the graph.
	minW, maxW float64

	// Lazy CSR mirror of adj for the dense-repair sweep: every node's
	// half-edges in one contiguous array (node v's are
	// csrE[csrOff[v]:csrOff[v+1]]) stream far better than per-node adjacency
	// slabs scattered across the heap. Invalidated by any mutation, rebuilt
	// on demand, shared by every repair over the same graph build.
	csrOff []int32
	csrE   []Edge
	csrOK  bool
}

// New creates a graph with n nodes and no edges.
func New(n int) *Graph {
	return &Graph{n: n, adj: make([][]Edge, n)}
}

// NewSized creates a graph over len(deg) nodes and no edges in which node v
// takes deg[v] half-edges without AddEdge reallocating: its adjacency
// capacity is deg[v] rounded up to a power of two, what appends from empty
// would have grown it to, so a later build of a similar shape (Reset) has
// the same room to creep. Every node's adjacency is cut from one slab,
// where New's graph allocates per node as it grows.
func NewSized(deg []int32) *Graph {
	g := New(len(deg))
	g.cutAdjacency(func(v int) int {
		if deg[v] == 0 {
			return 0
		}
		return 1 << bits.Len32(uint32(deg[v]-1))
	})
	return g
}

// cutAdjacency gives every node of g an empty adjacency list of capacity
// size(v), all cut from one slab. It is the one sizing path of NewSized and
// Presize.
func (g *Graph) cutAdjacency(size func(v int) int) {
	total := 0
	for v := range g.adj {
		total += size(v)
	}
	slab := make([]Edge, total)
	for v := range g.adj {
		c := size(v)
		g.adj[v] = slab[:0:c]
		slab = slab[c:]
	}
}

// Reset reconfigures the graph in place to n nodes with no edges, retaining
// the per-node adjacency slabs from previous use. Rebuilding a graph of a
// similar shape (the forwarding-state engine does so every update instant)
// then performs no allocations in steady state.
func (g *Graph) Reset(n int) {
	if n <= cap(g.adj) {
		g.adj = g.adj[:n]
	} else {
		adj := make([][]Edge, n)
		copy(adj, g.adj[:cap(g.adj)])
		g.adj = adj
	}
	for i := range g.adj {
		g.adj[i] = g.adj[i][:0]
	}
	g.n = n
	g.minW, g.maxW = 0, 0
	g.csrOK = false
}

// Freeze builds the CSR mirror the dense repair sweeps, if any edge was
// added since the last build. After it, and until the next mutation, any
// number of goroutines may run RepairSSSPDense (or Dijkstra) over g at once:
// every one of them only reads it. Without it the first repair builds the
// mirror itself, which is a data race when two start together.
func (g *Graph) Freeze() { g.csr() }

// csr returns the graph's CSR adjacency mirror, rebuilding it if any edge
// was added since the last build. The rebuild mutates the receiver, so
// concurrent repairs need the graph frozen first (Freeze). The checked build
// holds every weight to the repair's contract (strictly positive) here.
func (g *Graph) csr() (off []int32, edges []Edge) {
	if g.csrOK {
		return g.csrOff, g.csrE
	}
	g.reserveCSR()
	g.csrOff = g.csrOff[:g.n+1]
	g.csrE = g.csrE[:0]
	g.csrOff[0] = 0
	for v := 0; v < g.n; v++ {
		if check.Enabled {
			for _, e := range g.adj[v] {
				check.Assert(e.W > 0, "graph: edge %d-%d has weight %v; the repair's contract is strictly positive weights", v, e.To, e.W)
			}
		}
		g.csrE = append(g.csrE, g.adj[v]...)
		g.csrOff[v+1] = int32(len(g.csrE))
	}
	g.csrOK = true
	return g.csrOff, g.csrE
}

// reserveCSR sizes the CSR mirror's arrays for the graph's current edges,
// with an eighth to spare when the edge array has to be (re)allocated: edge
// counts creep as ground stations gain and lose satellites, and one
// allocation with headroom replaces a chain of append doublings.
func (g *Graph) reserveCSR() {
	if cap(g.csrOff) < g.n+1 {
		g.csrOff = make([]int32, g.n+1)
	}
	half := 0
	for _, a := range g.adj {
		half += len(a)
	}
	if cap(g.csrE) < half {
		g.csrE = make([]Edge, 0, half+half/8)
	}
}

// Presize makes room in two graphs at once, for a client that rebuilds a
// graph of one shape over and over in alternating buffers: g, freshly built,
// gets the CSR arrays its first repair will need, and the returned empty
// graph over the same nodes gets room for a build of g's shape — the
// per-node adjacency capacity g ended up with, cut from one slab, and CSR
// arrays to match — so that building and repairing it allocates nothing
// until some node outgrows what g's needed.
func (g *Graph) Presize() *Graph {
	g.reserveCSR()
	twin := New(g.n)
	twin.cutAdjacency(func(v int) int { return cap(g.adj[v]) })
	twin.csrOff = make([]int32, g.n+1)
	twin.csrE = make([]Edge, 0, cap(g.csrE))
	return twin
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int {
	total := 0
	for _, a := range g.adj {
		total += len(a)
	}
	return total / 2
}

// Neighbors returns the adjacency list of node v. The slice is owned by the
// graph and must not be modified.
func (g *Graph) Neighbors(v int) []Edge { return g.adj[v] }

// AddEdge inserts an undirected edge between a and b with weight w.
// It panics on out-of-range nodes, self-loops, or negative weights —
// all of which indicate a topology-construction bug.
func (g *Graph) AddEdge(a, b int, w float64) {
	if a < 0 || a >= g.n || b < 0 || b >= g.n {
		panic(fmt.Sprintf("graph: edge %d-%d out of range [0,%d)", a, b, g.n))
	}
	if a == b {
		panic(fmt.Sprintf("graph: self-loop at %d", a))
	}
	if w < 0 || math.IsNaN(w) {
		panic(fmt.Sprintf("graph: negative or NaN weight %v on edge %d-%d", w, a, b))
	}
	g.adj[a] = append(g.adj[a], Edge{To: int32(b), W: w})
	g.adj[b] = append(g.adj[b], Edge{To: int32(a), W: w})
	if w > 0 && (g.minW == 0 || w < g.minW) {
		g.minW = w
	}
	g.maxW = max(g.maxW, w)
	g.csrOK = false
}

// bucketQueue is the priority queue of every Dijkstra loop in the package:
// nodes keyed by tentative distance, popped in exact (key, id) order, so a
// run settles its nodes exactly as a binary heap with that comparison would.
// It is a monotone bucket queue: every key pushed after a pop is at least the
// key popped last, which Dijkstra's relaxations over non-negative weights
// guarantee. Bucket b holds the keys whose index ⌊key/width⌋ is b, and the
// buckets in [cur, cur+len(head)) live in a circular array of intrusive lists.
// The width is the graph's least positive weight, so that a relaxation
// lands in a later bucket but for rounding, and no narrower than the largest
// weight over n: the array holds about largest/width ≤ n buckets.
//
// The bucket being drained, cur, is sorted once into drain by (key, id), and
// an arrival into it — over a zero weight, or a weight below the width once
// the width is capped — is inserted in order, so a pop is always the least
// (key, id) queued. A key beyond the window, which only a repair's seeds
// pushed before the first pop can have, waits in an overflow list that
// refills the window once the buckets run dry. Each node is queued at most
// once, and a decrease-key moves its one entry, so the queue never holds
// more than n entries.
type bucketQueue struct {
	nodes []qnode // per node: key, where it is queued, list links
	head  []int32 // first node of each bucket's list, -1 when empty; a power of two long
	drain []int32 // bucket cur's nodes, by (key, id) descending: pop takes the last

	inv     float64 // 1 / bucket width
	cur     int64   // index of the bucket being drained
	listed  int     // nodes in the bucket lists
	over    int32   // first node of the overflow list, -1 when empty
	overLow int64   // at or below every overflow node's index and above every listed one's; noOverflow when empty
}

// qnode is one node's queue state. loc is a bucket slot (≥ 0), or one of
// notQueued, inDrain and inOverflow; next and prev link the node into its
// bucket's or the overflow's list.
type qnode struct {
	key        float64
	loc        int32
	next, prev int32
}

// before is the pop order: by key, then by node id.
func (q *bucketQueue) before(a, b int32) bool {
	ka, kb := q.nodes[a].key, q.nodes[b].key
	return ka < kb || ka == kb && a < b
}

const (
	notQueued  = -1
	inDrain    = -2
	inOverflow = -3

	noOverflow = math.MaxInt64
)

// reserve sizes the per-node arrays for n nodes. A run leaves every node
// notQueued and every bucket empty (each pushed node is eventually popped),
// so reuse needs no re-initialization sweep.
func (q *bucketQueue) reserve(n int) {
	if cap(q.nodes) < n {
		q.nodes = make([]qnode, n)
		for i := range q.nodes {
			q.nodes[i].loc = notQueued
		}
		q.drain = make([]int32, 0, n)
	}
	q.nodes = q.nodes[:n]
}

// reset prepares the queue for a run over n nodes whose edge weights' least
// positive value is minW and largest maxW (both 0 without edges).
func (q *bucketQueue) reset(n int, minW, maxW float64) {
	q.reserve(n)
	width := max(minW, maxW/float64(max(n, 1)))
	q.inv = 1 / width
	if math.IsInf(q.inv, 1) { // no positive weight, or a subnormal one
		q.inv = 1
	}
	// A relaxation lands at most maxW past the key just popped: that many
	// buckets, one for the rounding of each index, and the one being drained.
	size := 4
	for float64(size) < maxW*q.inv+3 {
		size *= 2
	}
	if cap(q.head) < size {
		q.head = make([]int32, size)
		for i := range q.head {
			q.head[i] = -1
		}
	}
	q.head = q.head[:size]
	q.drain = q.drain[:0]
	q.cur, q.listed = 0, 0
	q.over, q.overLow = -1, noOverflow
}

// index is key k's bucket: monotone in k, so a smaller bucket holds only
// smaller keys whatever the rounding. A key is a path's length, at most n
// times the largest weight, so the index is at most n².
func (q *bucketQueue) index(k float64) int64 { return int64(k * q.inv) }

// push queues node v with key k, or decreases its key if it is queued with a
// larger one.
func (q *bucketQueue) push(v int32, k float64) {
	nd := &q.nodes[v]
	switch nd.loc {
	case notQueued:
	case inDrain:
		if k < nd.key {
			nd.key = k
			q.sort(v)
		}
		return
	default:
		if k >= nd.key {
			return
		}
		if nd.loc >= 0 && q.index(k)&int64(len(q.head)-1) == int64(nd.loc) {
			nd.key = k // the same bucket, whose list is unordered
			return
		}
		q.unlink(v)
	}
	nd.key = k
	q.place(v)
}

// place files queued node v by its key: into the drain when its bucket is
// being drained, into its bucket's list inside the window, and into the
// overflow past it.
func (q *bucketQueue) place(v int32) {
	nd := &q.nodes[v]
	b := q.index(nd.key)
	if check.Enabled && b < q.cur {
		check.Failf("graph: key %v pushed below the bucket being drained (%d < %d)", nd.key, b, q.cur)
	}
	switch {
	case b == q.cur:
		nd.loc = inDrain
		q.drain = append(q.drain, v)
		q.sort(v)
	case b < q.overLow && b-q.cur < int64(len(q.head)):
		slot := int32(b & int64(len(q.head)-1))
		q.link(v, &q.head[slot])
		nd.loc = slot
		q.listed++
	default:
		q.link(v, &q.over)
		nd.loc = inOverflow
		q.overLow = min(q.overLow, b)
	}
}

// link pushes v onto the front of the list at *first.
func (q *bucketQueue) link(v int32, first *int32) {
	nd := &q.nodes[v]
	nd.prev, nd.next = -1, *first
	if *first >= 0 {
		q.nodes[*first].prev = v
	}
	*first = v
}

// unlink takes v out of its bucket's or the overflow's list.
func (q *bucketQueue) unlink(v int32) {
	nd := &q.nodes[v]
	if nd.prev >= 0 {
		q.nodes[nd.prev].next = nd.next
	} else if nd.loc == inOverflow {
		q.over = nd.next
	} else {
		q.head[nd.loc] = nd.next
	}
	if nd.next >= 0 {
		q.nodes[nd.next].prev = nd.prev
	}
	if nd.loc >= 0 {
		q.listed--
	}
}

// sort moves drain node v, just appended or with its key just decreased, to
// its place in the drain's (key, id) order.
func (q *bucketQueue) sort(v int32) {
	d := q.drain
	i := len(d) - 1
	for d[i] != v {
		i--
	}
	for ; i+1 < len(d) && q.before(v, d[i+1]); i++ {
		d[i] = d[i+1]
	}
	for ; i > 0 && q.before(d[i-1], v); i-- {
		d[i] = d[i-1]
	}
	d[i] = v
}

// pop removes and returns the queued node least by (key, id).
func (q *bucketQueue) pop() int32 {
	if len(q.drain) == 0 {
		q.advance()
	}
	last := len(q.drain) - 1
	v := q.drain[last]
	q.drain = q.drain[:last]
	q.nodes[v].loc = notQueued
	return v
}

// advance moves cur to the next bucket holding a node and sorts that
// bucket's list into the drain, refilling the window from the overflow when
// the lists are empty. The drain is empty and the queue is not.
func (q *bucketQueue) advance() {
	if q.listed == 0 {
		q.refill()
		return
	}
	mask := int64(len(q.head) - 1)
	for {
		q.cur++
		if q.head[q.cur&mask] >= 0 {
			break
		}
	}
	slot := q.cur & mask
	for v := q.head[slot]; v >= 0; v = q.nodes[v].next {
		q.nodes[v].loc = inDrain
		q.drain = append(q.drain, v)
		q.sort(v)
		q.listed--
	}
	q.head[slot] = -1
}

// refill moves the window to the overflow's least bucket and files every
// overflow node again: the least ones into the drain, the rest of the
// window into the lists, and the others back into the overflow.
func (q *bucketQueue) refill() {
	low := int64(noOverflow)
	for v := q.over; v >= 0; v = q.nodes[v].next {
		low = min(low, q.index(q.nodes[v].key))
	}
	q.cur = low
	v := q.over
	q.over, q.overLow = -1, noOverflow
	for v >= 0 {
		next := q.nodes[v].next
		q.place(v)
		v = next
	}
}

func (q *bucketQueue) empty() bool { return len(q.drain) == 0 && q.listed == 0 && q.over < 0 }

// Scratch holds the reusable internals of a Dijkstra run (the bucket
// queue). The zero value is ready for use; a Scratch must not be shared
// between concurrent Dijkstra calls. Threading one Scratch through a sweep
// of many runs (e.g. one per destination ground station) removes the
// per-run queue allocations.
type Scratch struct {
	q bucketQueue

	// Order, when its length is the graph's node count, receives the run's
	// settle order: the nodes in the order the queue popped them, then the
	// unreached ones by ascending id — the order RepairSSSPDense carries
	// from one solution to the next. Any other length records nothing.
	Order []int32
}

// Dijkstra computes single-source shortest paths from src. It fills dist
// (length N, Infinity for unreachable) and prev (length N, -1 where
// undefined; prev[src] = src). Slices are allocated when nil or too short;
// the possibly re-allocated slices are returned for reuse across calls.
//
// Ties between equally short paths are broken toward the smaller node index
// at extraction time, so repeated runs over an identical graph produce an
// identical shortest-path tree.
func (g *Graph) Dijkstra(src int, dist []float64, prev []int32) ([]float64, []int32) {
	return g.DijkstraScratch(src, dist, prev, &Scratch{})
}

// DijkstraScratch is Dijkstra with an explicit scratch workspace. Results
// are identical to Dijkstra for any scratch state: the workspace only
// recycles allocations, never data.
func (g *Graph) DijkstraScratch(src int, dist []float64, prev []int32, sc *Scratch) ([]float64, []int32) {
	if src < 0 || src >= g.n {
		panic(fmt.Sprintf("graph: source %d out of range", src))
	}
	if cap(dist) < g.n {
		dist = make([]float64, g.n)
	}
	dist = dist[:g.n]
	if cap(prev) < g.n {
		prev = make([]int32, g.n)
	}
	prev = prev[:g.n]
	for i := range dist {
		dist[i] = Infinity
		prev[i] = -1
	}
	q := &sc.q
	q.reset(g.n, g.minW, g.maxW)
	dist[src] = 0
	prev[src] = int32(src)
	q.push(int32(src), 0)
	record := len(sc.Order) == g.n
	settled := 0
	for !q.empty() {
		u := q.pop()
		if record {
			sc.Order[settled] = u
			settled++
		}
		du := dist[u]
		for _, e := range g.adj[u] {
			nd := du + e.W
			if nd < dist[e.To] {
				dist[e.To] = nd
				prev[e.To] = u
				q.push(e.To, nd)
			}
		}
	}
	if record {
		for v := range prev {
			if prev[v] < 0 {
				sc.Order[settled] = int32(v)
				settled++
			}
		}
	}
	return dist, prev
}

// PathFromPrev reconstructs the path src..dst from a prev array produced by
// Dijkstra(src, ...). It returns nil if dst is unreachable.
func PathFromPrev(prev []int32, src, dst int) []int {
	if prev[dst] == -1 {
		return nil
	}
	var rev []int
	for v := dst; ; v = int(prev[v]) {
		rev = append(rev, v)
		if v == src {
			break
		}
		if len(rev) > len(prev) {
			panic("graph: prev array contains a cycle")
		}
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// AllPairs holds the result of Floyd–Warshall: flattened N×N distance and
// next-hop matrices.
type AllPairs struct {
	n    int
	dist []float64
	next []int32
}

// FloydWarshall computes all-pairs shortest paths. This is the algorithm the
// paper's analysis pipeline uses on each 100 ms snapshot; it is O(N^3) and
// intended for validation and small topologies — use per-destination
// Dijkstra for constellation-scale forwarding state.
func (g *Graph) FloydWarshall() *AllPairs {
	n := g.n
	ap := &AllPairs{
		n:    n,
		dist: make([]float64, n*n),
		next: make([]int32, n*n),
	}
	for i := range ap.dist {
		ap.dist[i] = Infinity
		ap.next[i] = -1
	}
	for i := 0; i < n; i++ {
		ap.dist[i*n+i] = 0
		ap.next[i*n+i] = int32(i)
	}
	for u, edges := range g.adj {
		for _, e := range edges {
			if e.W < ap.dist[u*n+int(e.To)] {
				ap.dist[u*n+int(e.To)] = e.W
				ap.next[u*n+int(e.To)] = e.To
			}
		}
	}
	for k := 0; k < n; k++ {
		kRow := ap.dist[k*n : (k+1)*n]
		for i := 0; i < n; i++ {
			dik := ap.dist[i*n+k]
			if math.IsInf(dik, 1) {
				continue
			}
			iRow := ap.dist[i*n : (i+1)*n]
			iNext := ap.next[i*n : (i+1)*n]
			for j := 0; j < n; j++ {
				if nd := dik + kRow[j]; nd < iRow[j] {
					iRow[j] = nd
					iNext[j] = ap.next[i*n+k]
				}
			}
		}
	}
	return ap
}

// Dist returns the shortest-path distance from a to b.
func (ap *AllPairs) Dist(a, b int) float64 { return ap.dist[a*ap.n+b] }

// Path returns the node sequence of a shortest path a..b, nil if
// unreachable.
func (ap *AllPairs) Path(a, b int) []int {
	if ap.next[a*ap.n+b] == -1 {
		return nil
	}
	path := []int{a}
	for v := a; v != b; {
		v = int(ap.next[v*ap.n+b])
		path = append(path, v)
		if len(path) > ap.n {
			panic("graph: next matrix contains a cycle")
		}
	}
	return path
}
