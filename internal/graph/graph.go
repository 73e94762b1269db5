// Package graph implements the weighted-graph algorithms behind Hypatia's
// routing: single-source shortest paths (Dijkstra with a binary heap, used
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
	twin := &Graph{n: g.n, adj: make([][]Edge, g.n)}
	total := 0
	for _, a := range g.adj {
		total += cap(a)
	}
	slab := make([]Edge, total)
	for v, a := range g.adj {
		c := cap(a)
		twin.adj[v] = slab[:0:c]
		slab = slab[c:]
	}
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
	g.csrOK = false
}

// indexedHeap is a binary min-heap of nodes keyed by tentative distance,
// with ties broken by node index for deterministic path selection. It
// supports decrease-key via a position index.
type indexedHeap struct {
	nodes []int32   // heap array of node ids
	pos   []int32   // pos[node] = index in nodes, -1 if absent
	key   []float64 // key[node] = current tentative distance
}

// reset prepares the heap for a graph of n nodes, reusing the backing
// arrays when they are large enough. A completed Dijkstra run leaves pos
// all -1 (every pushed node is eventually popped, and pop clears its pos
// entry), so reuse needs no re-initialization sweep.
func (h *indexedHeap) reset(n int) {
	if cap(h.pos) < n {
		h.nodes = make([]int32, 0, n)
		h.pos = make([]int32, n)
		h.key = make([]float64, n)
		for i := range h.pos {
			h.pos[i] = -1
		}
		return
	}
	h.nodes = h.nodes[:0]
	h.pos = h.pos[:n]
	h.key = h.key[:n]
}

func (h *indexedHeap) less(a, b int32) bool {
	if h.key[a] != h.key[b] {
		return h.key[a] < h.key[b]
	}
	return a < b
}

func (h *indexedHeap) swap(i, j int) {
	h.nodes[i], h.nodes[j] = h.nodes[j], h.nodes[i]
	h.pos[h.nodes[i]] = int32(i)
	h.pos[h.nodes[j]] = int32(j)
}

func (h *indexedHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(h.nodes[i], h.nodes[parent]) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *indexedHeap) down(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h.nodes) && h.less(h.nodes[l], h.nodes[small]) {
			small = l
		}
		if r < len(h.nodes) && h.less(h.nodes[r], h.nodes[small]) {
			small = r
		}
		if small == i {
			return
		}
		h.swap(i, small)
		i = small
	}
}

// push inserts node v with key k, or decreases its key if already present.
func (h *indexedHeap) push(v int32, k float64) {
	if h.pos[v] >= 0 {
		if k >= h.key[v] {
			return
		}
		h.key[v] = k
		h.up(int(h.pos[v]))
		return
	}
	h.key[v] = k
	h.pos[v] = int32(len(h.nodes))
	h.nodes = append(h.nodes, v)
	h.up(len(h.nodes) - 1)
}

// pop removes and returns the minimum node.
func (h *indexedHeap) pop() int32 {
	top := h.nodes[0]
	last := len(h.nodes) - 1
	h.swap(0, last)
	h.nodes = h.nodes[:last]
	h.pos[top] = -1
	if last > 0 {
		h.down(0)
	}
	return top
}

func (h *indexedHeap) empty() bool { return len(h.nodes) == 0 }

// Scratch holds the reusable internals of a Dijkstra run (the indexed
// binary heap). The zero value is ready for use; a Scratch must not be
// shared between concurrent Dijkstra calls. Threading one Scratch through
// a sweep of many runs (e.g. one per destination ground station) removes
// the per-run heap allocations.
type Scratch struct {
	h indexedHeap

	// Order, when its length is the graph's node count, receives the run's
	// settle order: the nodes in the order the heap popped them, then the
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
	h := &sc.h
	h.reset(g.n)
	dist[src] = 0
	prev[src] = int32(src)
	h.push(int32(src), 0)
	record := len(sc.Order) == g.n
	settled := 0
	for !h.empty() {
		u := h.pop()
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
				h.push(e.To, nd)
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
