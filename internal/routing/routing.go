// Package routing builds the time-varying network state of an LEO
// constellation: per-instant snapshot graphs over satellites and ground
// stations, shortest-path computations on them, and the per-time-step
// forwarding tables that the packet simulator installs (the paper computes
// forwarding state at a configurable granularity, 100 ms by default, while
// link latencies evolve continuously in between).
package routing

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"hypatia/internal/check"
	"hypatia/internal/constellation"
	"hypatia/internal/geom"
	"hypatia/internal/graph"
	"hypatia/internal/groundstation"
)

// GSLPolicy selects how ground stations attach to visible satellites.
type GSLPolicy int

const (
	// GSLFree lets a ground station reach any visible satellite (the
	// paper's default: GSes with multiple parabolic antennas).
	GSLFree GSLPolicy = iota
	// GSLNearestOnly restricts each ground station to its nearest visible
	// satellite, modeling single-antenna user terminals.
	GSLNearestOnly
)

// Topology binds a constellation to a set of ground stations and a GSL
// attachment policy. Node numbering: satellites occupy 0..S-1 (constellation
// order), ground stations occupy S..S+G-1 (dataset order).
type Topology struct {
	Constellation  *constellation.Constellation
	GroundStations []groundstation.GS
	Policy         GSLPolicy

	gsECEF []geom.Vec3 // precomputed ground-station ECEF positions
}

// NewTopology builds a Topology. Ground stations must be non-empty.
func NewTopology(c *constellation.Constellation, gss []groundstation.GS, policy GSLPolicy) (*Topology, error) {
	if c == nil || c.NumSatellites() == 0 {
		return nil, fmt.Errorf("routing: empty constellation")
	}
	if len(gss) == 0 {
		return nil, fmt.Errorf("routing: no ground stations")
	}
	t := &Topology{Constellation: c, GroundStations: gss, Policy: policy}
	t.gsECEF = make([]geom.Vec3, len(gss))
	for i, g := range gss {
		t.gsECEF[i] = g.ECEF()
	}
	return t, nil
}

// NumSats returns the satellite count.
func (t *Topology) NumSats() int { return t.Constellation.NumSatellites() }

// NumGS returns the ground-station count.
func (t *Topology) NumGS() int { return len(t.GroundStations) }

// NumNodes returns the total node count (satellites + ground stations).
func (t *Topology) NumNodes() int { return t.NumSats() + t.NumGS() }

// GSNode maps a ground-station index to its node id.
func (t *Topology) GSNode(gs int) int { return t.NumSats() + gs }

// IsGS reports whether node is a ground station.
func (t *Topology) IsGS(node int) bool { return node >= t.NumSats() }

// GSIndex maps a ground-station node id back to its index; panics if node
// is a satellite.
func (t *Topology) GSIndex(node int) int {
	if !t.IsGS(node) {
		panic(fmt.Sprintf("routing: node %d is a satellite", node))
	}
	return node - t.NumSats()
}

// Snapshot is the network at one instant: a distance-weighted graph over all
// nodes plus the node positions it was built from.
type Snapshot struct {
	T    float64 // seconds since epoch
	Topo *Topology
	G    *graph.Graph
	// Pos holds ECEF positions for every node (satellites then ground
	// stations) at time T.
	Pos []geom.Vec3

	// vis is the visibility-scan scratch buffer reused by SnapshotInto.
	vis []int
}

// NodePositions fills dst (allocating if needed) with the ECEF positions of
// every node — satellites then ground stations — at time tsec. It is the
// cheap position-only path used for per-packet propagation delays; Snapshot
// additionally builds the connectivity graph.
func (t *Topology) NodePositions(tsec float64, dst []geom.Vec3) []geom.Vec3 {
	n := t.NumNodes()
	if cap(dst) < n {
		dst = make([]geom.Vec3, n)
	}
	dst = dst[:n]
	t.Constellation.PositionsECEF(tsec, dst[:t.NumSats()])
	copy(dst[t.NumSats():], t.gsECEF)
	return dst
}

// Snapshot builds the instantaneous topology graph at time tsec: ISL edges
// between satellites (always up, lengths from current positions) and GSL
// edges between ground stations and their visible satellites per the
// attachment policy. Edge weights are distances in meters, so shortest
// path = lowest propagation latency.
func (t *Topology) Snapshot(tsec float64) *Snapshot {
	return t.SnapshotInto(tsec, nil)
}

// SnapshotInto rebuilds the snapshot for time tsec into s, reusing s's
// position arena, graph edge slabs, and visibility scratch; pass nil (or a
// zero Snapshot) to allocate fresh. The returned snapshot is s (allocated
// if nil) and is byte-identical to Topology.Snapshot(tsec): arena reuse
// recycles storage, never data. Reusing one snapshot across the engine's
// update instants eliminates the per-instant allocation storm.
func (t *Topology) SnapshotInto(tsec float64, s *Snapshot) *Snapshot {
	nSat := t.NumSats()
	n := t.NumNodes()
	if s == nil {
		s = &Snapshot{}
	}
	s.T = tsec
	s.Topo = t
	if cap(s.Pos) < n {
		s.Pos = make([]geom.Vec3, n)
	}
	s.Pos = s.Pos[:n]
	pos := s.Pos
	t.Constellation.PositionsECEF(tsec, pos[:nSat])
	copy(pos[nSat:], t.gsECEF)

	if s.G == nil {
		s.G = graph.New(n)
	} else {
		s.G.Reset(n)
	}
	g := s.G
	for _, isl := range t.Constellation.ISLs {
		g.AddEdge(isl.A, isl.B, pos[isl.A].Distance(pos[isl.B]))
	}
	for gi, gs := range t.GroundStations {
		s.vis = t.Constellation.VisibleFromInto(gs.Position, tsec, pos[:nSat], s.vis)
		vis := s.vis
		if len(vis) == 0 {
			continue
		}
		gsNode := nSat + gi // GS node ids follow the satellites
		if t.Policy == GSLNearestOnly {
			best, bestD := -1, math.Inf(1)
			for _, si := range vis {
				if d := pos[si].Distance(pos[gsNode]); d < bestD {
					best, bestD = si, d
				}
			}
			g.AddEdge(gsNode, best, bestD)
			continue
		}
		for _, si := range vis {
			g.AddEdge(gsNode, si, pos[si].Distance(pos[gsNode]))
		}
	}
	return s
}

// FromGS runs Dijkstra rooted at ground station gs and returns the distance
// and predecessor arrays over all nodes. dist/prev are reused when large
// enough.
func (s *Snapshot) FromGS(gs int, dist []float64, prev []int32) ([]float64, []int32) {
	return s.G.Dijkstra(s.Topo.GSNode(gs), dist, prev)
}

// Path returns a shortest path between two ground stations as a node-id
// sequence (inclusive of both GS nodes) together with its length in meters.
// It returns (nil, +Inf) when no path exists — e.g. when either station has
// no visible satellite, the situation behind the paper's St. Petersburg
// outage.
func (s *Snapshot) Path(srcGS, dstGS int) ([]int, float64) {
	dist, prev := s.FromGS(srcGS, nil, nil)
	dstNode := s.Topo.GSNode(dstGS)
	if math.IsInf(dist[dstNode], 1) {
		return nil, graph.Infinity
	}
	return graph.PathFromPrev(prev, s.Topo.GSNode(srcGS), dstNode), dist[dstNode]
}

// RTT returns the instantaneous two-way propagation latency in seconds
// between two ground stations over the shortest path, +Inf if disconnected.
func (s *Snapshot) RTT(srcGS, dstGS int) float64 {
	_, d := s.Path(srcGS, dstGS)
	if math.IsInf(d, 1) {
		return graph.Infinity
	}
	return 2 * d / geom.SpeedOfLight
}

// WithoutNodes returns a snapshot whose graph omits every edge touching the
// given nodes, leaving positions and time unchanged. Routing strategies use
// it to model failed or administratively excluded satellites.
func (s *Snapshot) WithoutNodes(avoid map[int]bool) *Snapshot {
	g := graph.New(s.G.N())
	for v := 0; v < s.G.N(); v++ {
		if avoid[v] {
			continue
		}
		for _, e := range s.G.Neighbors(v) {
			// Undirected edges appear in both adjacency lists; add each
			// once from the smaller endpoint.
			if int(e.To) > v && !avoid[int(e.To)] {
				g.AddEdge(v, int(e.To), e.W)
			}
		}
	}
	return &Snapshot{T: s.T, Topo: s.Topo, G: g, Pos: s.Pos}
}

// KShortestPaths returns up to k loopless shortest paths between two ground
// stations on this snapshot, cheapest first — the building block for the
// multi-path routing and traffic-engineering extensions the paper's §5.4
// and §7 point to. It returns nil when the pair is disconnected.
func (s *Snapshot) KShortestPaths(srcGS, dstGS, k int) []graph.WeightedPath {
	return s.G.KShortestPaths(s.Topo.GSNode(srcGS), s.Topo.GSNode(dstGS), k)
}

// ForwardingTable is the routing state of the whole network at one instant:
// for every node and every destination ground station, the next-hop node.
// It is the in-memory analog of the static routing tables Hypatia installs
// into ns-3 at each state-update event.
type ForwardingTable struct {
	T        float64
	NumNodes int
	NumGS    int
	// next is flattened [dstGS*NumNodes + node] = next-hop node id, -1 if
	// the destination is unreachable from node. next for the destination's
	// own node is the node itself.
	next []int32
	// pool, when non-nil, is where Release returns the table's buffer.
	pool *TablePool
	// released marks a table whose buffer has been recycled; any further
	// use is a bug that the hypatia_checks build reports.
	released bool
}

// ForwardingTable computes the full forwarding state of the snapshot into a
// fresh table: ForwardingTableFor over every destination.
func (s *Snapshot) ForwardingTable() *ForwardingTable {
	return s.ForwardingTableFor(nil)
}

// ForwardingTableFor is the from-scratch sweep, and the specification every
// other producer of forwarding state is compared against: one Dijkstra per
// destination ground station in active (nil = all), exploiting the symmetry
// of the undirected graph — the predecessor of node u in the tree rooted at
// destination d is u's next hop toward d. Destinations outside active report
// unreachable; traffic only flows to destinations declared active, so a
// partial table is behaviorally equivalent at a fraction of the cost. The
// table is freshly allocated; the Dijkstra arenas are shared across the
// sweep's trees.
func (s *Snapshot) ForwardingTableFor(active []int) *ForwardingTable {
	n, ng := s.Topo.NumNodes(), s.Topo.NumGS()
	ft := NewEmptyForwardingTable(s.T, n, ng)
	var (
		dist []float64
		prev []int32
		sc   graph.Scratch
	)
	if active == nil {
		for gs := 0; gs < ng; gs++ {
			dist, prev = s.G.DijkstraScratch(s.Topo.GSNode(gs), dist, prev, &sc)
			ft.SetDestination(gs, prev)
		}
		return ft
	}
	for _, gs := range active {
		dist, prev = s.G.DijkstraScratch(s.Topo.GSNode(gs), dist, prev, &sc)
		ft.SetDestination(gs, prev)
	}
	return ft
}

// NewEmptyForwardingTable builds a table with every entry unreachable, for
// callers that fill destinations selectively (see SetDestination).
func NewEmptyForwardingTable(t float64, numNodes, numGS int) *ForwardingTable {
	ft := &ForwardingTable{T: t, NumNodes: numNodes, NumGS: numGS, next: make([]int32, numNodes*numGS)}
	for i := range ft.next {
		ft.next[i] = -1
	}
	return ft
}

// TablePool recycles forwarding-table buffers across update instants. The
// zero value is ready for use and safe for concurrent Empty/Release calls.
// The forwarding-state engine allocates each instant's table from a pool
// and releases it once the next instant's table has been installed, so a
// steady-state run cycles a handful of buffers instead of allocating
// NumNodes×NumGS entries 10 times per simulated second.
type TablePool struct {
	mu   sync.Mutex
	free []*ForwardingTable
}

// Reserve stocks the pool with n tables of numNodes × numGS entries whose
// buffers are cut from one allocation, so a client that knows how many tables
// it can ever hold at once pays for them at construction and never again. One
// slab rather than n buffers because a slab this size comes fresh from the
// operating system and a table nobody draws is never touched: reserving more
// than a run uses costs address space, not resident memory. Empty draws the
// most recently returned table first, which keeps the working set at the
// tables actually in rotation.
func (p *TablePool) Reserve(n, numNodes, numGS int) {
	need := numNodes * numGS
	slab := make([]int32, n*need)
	tables := make([]ForwardingTable, n)
	p.mu.Lock()
	for i := range tables {
		ft := &tables[i]
		ft.next = slab[i*need : (i+1)*need : (i+1)*need]
		ft.pool = p
		ft.released = true
		p.free = append(p.free, ft)
	}
	p.mu.Unlock()
}

// Empty returns a table with every entry unreachable (as
// NewEmptyForwardingTable), drawing the backing buffer from the pool when
// one large enough is available.
func (p *TablePool) Empty(t float64, numNodes, numGS int) *ForwardingTable {
	need := numNodes * numGS
	var ft *ForwardingTable
	p.mu.Lock()
	for i := len(p.free) - 1; i >= 0; i-- {
		if cap(p.free[i].next) >= need {
			ft = p.free[i]
			p.free = append(p.free[:i], p.free[i+1:]...)
			break
		}
	}
	p.mu.Unlock()
	if ft == nil {
		ft = &ForwardingTable{next: make([]int32, need)}
	}
	ft.T, ft.NumNodes, ft.NumGS = t, numNodes, numGS
	ft.next = ft.next[:need]
	ft.pool = p
	ft.released = false
	for i := range ft.next {
		ft.next[i] = -1
	}
	return ft
}

// Release marks the table dead and, when it came from a TablePool, returns
// its buffer for reuse. Safe on nil tables; a no-op (beyond the dead mark)
// for tables allocated outside a pool. Callers must not touch the table
// afterwards — the hypatia_checks build turns such use, and a second
// Release, into a panic, since a double Release would let the pool hand the
// same buffer to two owners at once. Unchecked builds silently tolerate the
// repeat.
func (ft *ForwardingTable) Release() {
	if ft == nil {
		return
	}
	if ft.released {
		if check.Enabled {
			check.Failf("double Release of forwarding table t=%v: the pool could reissue its buffer twice", ft.T)
		}
		return
	}
	ft.released = true
	if ft.pool == nil {
		return
	}
	p := ft.pool
	p.mu.Lock()
	p.free = append(p.free, ft)
	p.mu.Unlock()
}

// CloneInto copies the table's forwarding state into dst, reusing dst's
// buffer when it is large enough (nil dst, or one with a smaller buffer,
// allocates a fresh table). The clone is pool-free and starts a new
// ownership life regardless of dst's prior state — this is how the sharded
// engine stages one engine-local copy of each update instant's table per
// shard, recycling each shard's displaced clones as the destinations for
// later instants.
func (ft *ForwardingTable) CloneInto(dst *ForwardingTable) *ForwardingTable {
	if check.Enabled {
		check.Assert(!ft.released, "forwarding table t=%v cloned after Release", ft.T)
	}
	need := ft.NumNodes * ft.NumGS
	if dst == nil || cap(dst.next) < need {
		dst = &ForwardingTable{next: make([]int32, need)}
	}
	dst.T = ft.T
	dst.NumNodes = ft.NumNodes
	dst.NumGS = ft.NumGS
	dst.next = dst.next[:need]
	copy(dst.next, ft.next)
	dst.pool = nil
	dst.released = false
	return dst
}

// Equal reports whether two tables encode byte-identical forwarding state:
// same instant, same dimensions, same next-hop entries. It is the identity
// predicate the differential tests use to compare the forwarding-state
// producer against the from-scratch sweep.
func (ft *ForwardingTable) Equal(o *ForwardingTable) bool {
	if ft.T != o.T {
		return false
	}
	return ft.NumNodes == o.NumNodes && ft.NumGS == o.NumGS && slices.Equal(ft.next, o.next)
}

// SetDestination installs the next-hop column for one destination ground
// station from a predecessor array produced by Dijkstra rooted at that
// destination. Distinct destinations may be set concurrently.
func (ft *ForwardingTable) SetDestination(dstGS int, prev []int32) {
	copy(ft.next[dstGS*ft.NumNodes:(dstGS+1)*ft.NumNodes], prev)
	if check.Enabled {
		ft.checkColumn(dstGS)
	}
}

// checkColumn validates one destination's next-hop column: every entry must
// be a node id or -1, and the destination's own node must map to itself
// (Dijkstra roots its predecessor tree with prev[src] = src). It touches only
// the column for dstGS, so SetDestination stays safe to call concurrently for
// distinct destinations.
func (ft *ForwardingTable) checkColumn(dstGS int) {
	dstNode := ft.NumNodes - ft.NumGS + dstGS
	col := ft.next[dstGS*ft.NumNodes : (dstGS+1)*ft.NumNodes]
	for node, nh := range col {
		check.Assert(nh >= -1 && int(nh) < ft.NumNodes,
			"forwarding table t=%v: node %d -> dst gs %d has next hop %d outside [-1, %d)",
			ft.T, node, dstGS, nh, ft.NumNodes)
	}
	check.Assert(col[dstNode] == int32(dstNode),
		"forwarding table t=%v: destination node %d maps to %d, not itself", ft.T, dstNode, col[dstNode])
}

// NextHop returns the next-hop node from node toward destination ground
// station dstGS, or -1 if unreachable. For the destination node itself it
// returns the node id.
func (ft *ForwardingTable) NextHop(node, dstGS int) int32 {
	if check.Enabled {
		check.Assert(!ft.released, "forwarding table t=%v consulted after Release", ft.T)
	}
	slot := dstGS*ft.NumNodes + node // column-major (dstGS, node) cell
	return ft.next[slot]
}

// PathVia follows the table from a source node to a destination ground
// station and returns the node sequence, or nil if the destination is
// unreachable — including the degenerate case of a table containing a
// forwarding loop, where the walk can never terminate. Tables produced by
// the engine are loop-free by construction (Dijkstra predecessor trees);
// the hypatia_checks build asserts that and panics on a loop instead. It
// is primarily a debugging and validation aid; packet forwarding in the
// simulator does the same walk hop by hop.
func (ft *ForwardingTable) PathVia(topo *Topology, src, dstGS int) []int {
	dstNode := topo.GSNode(dstGS)
	path := []int{src}
	for v := src; v != dstNode; {
		nh := ft.NextHop(v, dstGS)
		if nh < 0 {
			return nil
		}
		v = int(nh)
		path = append(path, v)
		if len(path) > ft.NumNodes {
			if check.Enabled {
				check.Failf("forwarding table t=%v: loop walking from node %d toward dst gs %d",
					ft.T, src, dstGS)
			}
			return nil
		}
	}
	return path
}

// SatSequence extracts the satellite node ids from a path, dropping ground
// stations (endpoints and, in bent-pipe scenarios, relays). Two paths are
// "the same" in the paper's path-change metric iff their satellite
// sequences are identical.
func SatSequence(topo *Topology, path []int) []int {
	var sats []int
	for _, v := range path {
		if !topo.IsGS(v) {
			sats = append(sats, v)
		}
	}
	return sats
}

// SameSatPath reports whether two paths traverse the same satellites in the
// same order.
func SameSatPath(topo *Topology, a, b []int) bool {
	sa := SatSequence(topo, a)
	sb := SatSequence(topo, b)
	if len(sa) != len(sb) {
		return false
	}
	for i := range sa {
		if sa[i] != sb[i] {
			return false
		}
	}
	return true
}

// HopCount returns the number of hops (links) in a path, 0 for nil.
func HopCount(path []int) int {
	if len(path) == 0 {
		return 0
	}
	return len(path) - 1
}

// PathLength sums the Euclidean edge lengths of a path under the snapshot's
// positions.
func (s *Snapshot) PathLength(path []int) float64 {
	total := 0.0
	for i := 0; i+1 < len(path); i++ {
		total += s.Pos[path[i]].Distance(s.Pos[path[i+1]])
	}
	return total
}
