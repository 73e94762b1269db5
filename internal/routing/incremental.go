package routing

import (
	"math"

	"hypatia/internal/check"
	"hypatia/internal/constellation"
	"hypatia/internal/geom"
	"hypatia/internal/graph"
)

// maxECEFSpeed bounds the ECEF-frame speed of any satellite the delta layer
// will ever see. A bound Earth orbit cannot exceed escape velocity at its
// current radius (~11.0 km/s at the lowest sustainable altitudes) and the
// rotating-frame correction adds at most ω·r ≈ 0.5 km/s at LEO radii, so
// 12 km/s is a universal ceiling with margin. The visibility cache's skip
// deadlines are sound exactly when this bound holds; the hypatia_checks
// build verifies the cached visible sets against a full scan every instant,
// so a violation cannot silently corrupt forwarding state in checked runs.
const maxECEFSpeed = 12e3 // m/s

// marginSafety shrinks every skip deadline so float rounding in the margin
// arithmetic can never push a recheck past the true crossing time.
const marginSafety = 0.9

// DeltaState is the reusable workspace for Topology.DeltaInto: the
// double-buffered snapshots it diffs, the changed-edge scratch, and a
// per-pair visibility margin cache that lets consecutive instants skip the
// full GS×satellite visibility scan. The zero value is ready for use; like
// the other routing scratch types it must only ever be owned by one
// goroutine at a time.
//
// The margin cache records, for every (ground station, satellite) pair, the
// earliest time its visibility status could flip: both criteria VisibleFrom
// applies — slant distance against MaxGSLRange and the sign of the local-up
// component — move at most maxECEFSpeed (times a criterion-specific factor)
// meters per second, so a pair currently `margin` meters from its decision
// boundary cannot flip for margin/(rate) seconds. Pairs inside their
// deadline keep their cached status; expired pairs are rechecked with the
// exact same arithmetic VisibleFromInto uses, so the resulting snapshot is
// bitwise identical to Topology.SnapshotInto.
type DeltaState struct {
	topo   *Topology
	snaps  [2]*Snapshot
	cur    int  // index of the most recent snapshot in snaps
	have   bool // at least one snapshot has been built since reset
	prevOK bool // snaps[cur^1] is the genuine previous instant

	changes []graph.EdgeChange
	diff    graph.DiffScratch

	up        []geom.Vec3 // per-GS local-up unit vector (geodetic normal)
	visible   []bool      // [gs*S+sat] cached visibility status
	nextCheck []float64   // [gs*S+sat] earliest instant the pair could flip
	rowNext   []float64   // per-GS earliest instant any pair in the row could flip
	rowHor    []float64   // per-GS horizon up to which watch covers the row
	watch     [][]int32   // per-GS satellites with a deadline before the horizon
	visLists  [][]int32   // per-GS ascending visible-satellite indices
	visValid  bool        // cache primed and valid for forward stepping
	lastT     float64

	// visScratch is verifyVisibility's from-scratch scan buffer, held on
	// the state so the hypatia_checks cross-check does not allocate per
	// instant.
	visScratch []int
}

// watchHorizon is how far ahead (seconds) a row scan looks when collecting
// its watchlist: pairs whose deadline falls inside the horizon are tracked
// individually, everyone else is covered wholesale until the next full row
// scan at the horizon. Longer horizons scan rows less often but watch more
// pairs per instant.
const watchHorizon = 2.0

// Prev returns the snapshot preceding the one DeltaInto last returned, or
// nil on the first instant. It stays valid until the next DeltaInto call.
func (d *DeltaState) Prev() *Snapshot {
	if !d.prevOK {
		return nil
	}
	return d.snaps[d.cur^1]
}

// reset rebinds the state to a topology, dropping all cached structure.
func (d *DeltaState) reset(t *Topology) {
	nSat := t.NumSats()
	nGS := t.NumGS()
	d.topo = t
	d.have = false
	d.visValid = false
	if cap(d.up) < nGS {
		d.up = make([]geom.Vec3, nGS)
		d.rowNext = make([]float64, nGS)
		d.rowHor = make([]float64, nGS)
		d.watch = make([][]int32, nGS)
		d.visLists = make([][]int32, nGS)
	}
	d.up = d.up[:nGS]
	d.rowNext = d.rowNext[:nGS]
	d.rowHor = d.rowHor[:nGS]
	d.watch = d.watch[:nGS]
	d.visLists = d.visLists[:nGS]
	if cap(d.visible) < nSat*nGS {
		d.visible = make([]bool, nSat*nGS)
		d.nextCheck = make([]float64, nSat*nGS)
	}
	d.visible = d.visible[:nSat*nGS]
	d.nextCheck = d.nextCheck[:nSat*nGS]
	for i, gs := range t.GroundStations {
		sinLat, cosLat := math.Sincos(gs.Position.Lat)
		sinLon, cosLon := math.Sincos(gs.Position.Lon)
		d.up[i] = geom.Vec3{X: cosLat * cosLon, Y: cosLat * sinLon, Z: sinLat}
	}
}

// refreshPair recomputes one pair's visibility with VisibleFromInto's exact
// criteria and stamps its next-check deadline from the distance-to-boundary
// margins. It reports whether the cached status flipped.
func (d *DeltaState) refreshPair(t *Topology, gi, si int, tsec float64, pos []geom.Vec3) bool {
	c := t.Constellation
	p := pos[si]
	obs := t.gsECEF[gi]
	h := p.Norm() - geom.EarthRadius
	dist := p.Distance(obs)
	rng := constellation.MaxGSLRange(h, c.MinElev)
	// The local-up component of the GS→satellite vector has exactly the
	// sign of geom.Elevation (asin of the component over a positive range),
	// so `u < 0` reproduces the horizon criterion bitwise.
	u := p.Sub(obs).Dot(d.up[gi])
	vis := !(dist > rng) && !(u < 0)

	// Each criterion's margin shrinks at a bounded rate: the slant distance
	// and the altitude behind MaxGSLRange both move at ≤ maxECEFSpeed, and
	// for minEl > 0 the range limit is h/sin(minEl), so |d(dist-rng)/dt| ≤
	// (1 + 1/sin(minEl))·maxECEFSpeed. The up component is a fixed-direction
	// projection of the satellite position, so it moves at ≤ maxECEFSpeed.
	safe := 0.0
	if c.MinElev > 0 {
		rate := (1 + 1/math.Sin(c.MinElev)) * maxECEFSpeed
		safe = math.Abs(dist-rng) / rate
		if s2 := math.Abs(u) / maxECEFSpeed; s2 < safe {
			safe = s2
		}
		safe *= marginSafety
	}
	idx := gi*t.NumSats() + si
	d.nextCheck[idx] = tsec + safe
	flipped := d.visible[idx] != vis
	d.visible[idx] = vis
	return flipped
}

// rebuildRow regenerates one ground station's ascending visible list and
// row deadline from the per-pair cache.
func (d *DeltaState) rebuildRow(gi, nSat int) {
	lst := d.visLists[gi][:0]
	row := d.visible[gi*nSat : (gi+1)*nSat]
	for si, v := range row {
		if v {
			lst = append(lst, int32(si))
		}
	}
	d.visLists[gi] = lst
}

// scanRow refreshes a full row — every pair when refreshAll is set (first
// call, backward jump), expired pairs otherwise — and rebuilds the row's
// watchlist: the pairs whose deadline lands before the new horizon. Until
// that horizon passes, the instants in between need only service the
// watchlist.
func (d *DeltaState) scanRow(t *Topology, gi, nSat int, tsec float64, pos []geom.Vec3, refreshAll bool) {
	base := gi * nSat
	changed := false
	for si := 0; si < nSat; si++ { // satellite ids double as node ids
		if (refreshAll || tsec >= d.nextCheck[base+si]) && d.refreshPair(t, gi, si, tsec, pos) {
			changed = true
		}
	}
	if changed || refreshAll {
		d.rebuildRow(gi, nSat)
	}
	horizon := tsec + watchHorizon
	w := d.watch[gi][:0]
	next := horizon
	for si := 0; si < nSat; si++ { // satellite ids double as node ids
		if nc := d.nextCheck[base+si]; nc < horizon {
			w = append(w, int32(si))
			if nc < next {
				next = nc
			}
		}
	}
	d.watch[gi] = w
	d.rowHor[gi] = horizon
	d.rowNext[gi] = next
}

// serviceWatch refreshes the expired pairs on a row's watchlist, dropping
// entries whose new deadline cleared the horizon. Pairs off the watchlist
// are guaranteed quiet until the horizon, so the row deadline is the
// earlier of the watchlist minimum and the horizon itself.
func (d *DeltaState) serviceWatch(t *Topology, gi, nSat int, tsec float64, pos []geom.Vec3) {
	base := gi * nSat
	changed := false
	w := d.watch[gi]
	out := w[:0]
	next := d.rowHor[gi]
	for _, si := range w {
		idx := base + int(si)
		if tsec >= d.nextCheck[idx] && d.refreshPair(t, gi, int(si), tsec, pos) {
			changed = true
		}
		if nc := d.nextCheck[idx]; nc < d.rowHor[gi] {
			out = append(out, si)
			if nc < next {
				next = nc
			}
		}
	}
	d.watch[gi] = out
	if changed {
		d.rebuildRow(gi, nSat)
	}
	d.rowNext[gi] = next
}

// updateVisibility brings the margin cache to tsec: on the first call (or
// after a backward time jump, which invalidates the forward-looking
// deadlines) every pair is rechecked; otherwise only rows whose deadline
// passed are touched, and within them only the watchlist — the full row is
// rescanned only when its watch horizon expires.
func (d *DeltaState) updateVisibility(t *Topology, tsec float64, pos []geom.Vec3) {
	nSat := t.NumSats()
	if !d.visValid || tsec < d.lastT {
		for gi := range t.GroundStations {
			d.scanRow(t, gi, nSat, tsec, pos, true)
		}
		d.visValid = true
		return
	}
	for gi := range t.GroundStations {
		if tsec < d.rowNext[gi] {
			continue
		}
		if tsec >= d.rowHor[gi] {
			d.scanRow(t, gi, nSat, tsec, pos, false)
		} else {
			d.serviceWatch(t, gi, nSat, tsec, pos)
		}
	}
}

// verifyVisibility cross-checks the margin cache against a from-scratch
// visibility scan — the runtime form of the cache's soundness argument.
func (d *DeltaState) verifyVisibility(t *Topology, tsec float64, pos []geom.Vec3) {
	scratch := d.visScratch
	for gi, gs := range t.GroundStations {
		scratch = t.Constellation.VisibleFromInto(gs.Position, tsec, pos[:t.NumSats()], scratch)
		cached := d.visLists[gi]
		check.Assert(len(scratch) == len(cached),
			"delta visibility cache t=%v gs %d: %d visible cached, %d from scratch",
			tsec, gi, len(cached), len(scratch))
		for i, si := range scratch {
			check.Assert(cached[i] == int32(si),
				"delta visibility cache t=%v gs %d: entry %d is sat %d, scan says %d",
				tsec, gi, i, cached[i], si)
		}
	}
	d.visScratch = scratch
}

// snapshotFromCache is SnapshotInto with the visibility scan replaced by
// the margin cache's per-GS visible lists. Its output is bitwise identical:
// positions, ISL edges, and GSL edge weights come from the same arithmetic,
// and the cached lists reproduce VisibleFromInto's ascending order.
func (d *DeltaState) snapshotFromCache(t *Topology, tsec float64, s *Snapshot) *Snapshot {
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

	d.updateVisibility(t, tsec, pos)
	if check.Enabled {
		d.verifyVisibility(t, tsec, pos)
	}

	if s.G == nil {
		s.G = graph.New(n)
	} else {
		s.G.Reset(n)
	}
	g := s.G
	for _, isl := range t.Constellation.ISLs {
		g.AddEdge(isl.A, isl.B, pos[isl.A].Distance(pos[isl.B]))
	}
	for gi := range t.GroundStations {
		vis := d.visLists[gi]
		if len(vis) == 0 {
			continue
		}
		gsNode := nSat + gi // GS node ids follow the satellites
		if t.Policy == GSLNearestOnly {
			best, bestD := -1, math.Inf(1)
			for _, si := range vis {
				if dd := pos[si].Distance(pos[gsNode]); dd < bestD {
					best, bestD = int(si), dd
				}
			}
			g.AddEdge(gsNode, best, bestD)
			continue
		}
		for _, si := range vis {
			g.AddEdge(gsNode, int(si), pos[si].Distance(pos[gsNode]))
		}
	}
	return s
}

// deltaSnapshot advances d to time tsec and returns the instant's snapshot
// without computing the changed-edge diff. This is the incremental engine's
// entry point: its dense repair re-solves each tree from the new graph
// directly and never reads a change list, so the O(E) diff would be pure
// overhead there.
func (t *Topology) deltaSnapshot(tsec float64, d *DeltaState) *Snapshot {
	if d.topo != t {
		d.reset(t)
	}
	next := d.cur ^ 1
	d.snaps[next] = d.snapshotFromCache(t, tsec, d.snaps[next])
	d.prevOK = d.have
	d.cur = next
	d.have = true
	d.lastT = tsec
	return d.snaps[next]
}

// primeNext gives the second snapshot buffer, while it is still unused, the
// capacity the first one's build ended up with (graph.Presize), so that the
// second instant's snapshot allocates no more than any later one.
func (d *DeltaState) primeNext() {
	cur := d.snaps[d.cur]
	if d.snaps[d.cur^1] == nil {
		d.snaps[d.cur^1] = &Snapshot{Pos: make([]geom.Vec3, len(cur.Pos)), G: cur.G.Presize()}
	}
}

// DeltaInto advances d to time tsec and returns the snapshot for that
// instant together with the changed-edge list against the previous instant
// (weight drifts and visibility flips; nil on the first call, when there is
// no previous instant to diff against). The snapshot is bitwise identical
// to Topology.SnapshotInto(tsec, ...) but skips the full visibility scan
// via the margin cache; it remains valid until the second-next DeltaInto
// call (snapshots are double-buffered so the previous instant stays
// diffable). The change list is owned by d and overwritten by the next
// call. Time may move in any direction; backward jumps just cost one full
// visibility refresh.
func (t *Topology) DeltaInto(tsec float64, d *DeltaState) (*Snapshot, []graph.EdgeChange) {
	snap := t.deltaSnapshot(tsec, d)
	var changes []graph.EdgeChange
	if d.prevOK {
		d.changes = graph.DiffInto(d.snaps[d.cur^1].G, snap.G, d.changes[:0], &d.diff)
		changes = d.changes
	}
	return snap, changes
}

// IncrementalEngine carries shortest-path state across consecutive instants:
// instead of a fresh snapshot plus one full heap-driven Dijkstra per root,
// each instant builds the snapshot through the delta layer's visibility
// margin cache and re-solves the per-ground-station trees with
// graph.RepairSSSPDense, which replaces the priority queue with the root's
// settle order from the previous instant. Between 100 ms instants every link
// weight drifts (so there is nothing to diff around) but the settle order
// barely moves, which makes the re-solve a single near-branchless sweep over
// the adjacency.
//
// An instant has two phases. Advance is serial: it moves the snapshot to
// the instant and freezes its graph. The trees are then independent of one
// another, because a root's repair reads the frozen graph and writes only
// its own settle order and the TreeScratch it is handed: Fill solves a list
// of roots into a table's columns, and calls for distinct roots with
// distinct scratches may run at once (core's producer splits each instant's
// roots across its workers this way). Trees and Step are the serial clients:
// Advance plus one loop over the roots on the engine's own scratch. Trees
// hands each tree to a visitor (the stepped analyses of internal/analysis),
// Step installs them into a table (packet runs).
//
// Because the dense repair is correct from any starting order — order
// quality affects cost, never the bitwise result — the engine needs no
// freshness bookkeeping at all: root sets may grow, shrink, or reorder
// between instants and time may jump either direction, all without
// reseeding. Routing that avoids nodes goes through core.AvoidNodes, which
// runs the from-scratch sweep on a pruned snapshot. Every tree is bitwise
// identical to the from-scratch computation (Snapshot.FromGS, and so
// Snapshot.ForwardingTable and friends) — the hypatia_checks build
// re-derives every requested tree from scratch and fails on any mismatch,
// and the differential suites in internal/core and internal/analysis prove
// the same over randomized instant sequences.
//
// Advance, Trees and Step are single-owner calls (one goroutine at a time,
// never during a Fill); tables Step returns are the caller's to Release.
type IncrementalEngine struct {
	topo *Topology
	pool *TablePool

	delta DeltaState
	g     *graph.Graph // the instant Advance last reached, frozen
	tsec  float64

	// Per-root settle order, the only state a repair carries into the next
	// one. A nil order marks a root never yet computed: its first tree is a
	// from-scratch Dijkstra whose pop order becomes the order.
	order [][]int32

	scratch *TreeScratch // Trees' and Step's
	all     []int        // every ground station, the roots of a nil list

	oracle oracleSnapshot // hypatia_checks only
}

// TreeScratch is one solver's working arrays: the dist/prev pair a tree is
// written into (the dense repair overwrites both before reading either),
// the repair's and the first Dijkstra's scratch, and under hypatia_checks
// the oracle's own pair. A TreeScratch serves one Fill at a time.
type TreeScratch struct {
	dist   []float64
	prev   []int32
	repair graph.RepairScratch
	first  graph.Scratch // a root's first tree: from-scratch Dijkstra
	oracle oracleScratch // hypatia_checks only
}

// NewTreeScratch sizes a scratch for the engine's topology, the repair's
// heap included, so that a worker's trees allocate nothing beyond each
// root's first settle order.
func (e *IncrementalEngine) NewTreeScratch() *TreeScratch {
	n := e.topo.NumNodes()
	sc := &TreeScratch{dist: make([]float64, n), prev: make([]int32, n)}
	sc.repair.Reserve(n)
	return sc
}

// NewIncrementalEngine builds an engine over topo drawing tables from pool
// (nil allocates a private pool).
func NewIncrementalEngine(topo *Topology, pool *TablePool) *IncrementalEngine {
	if pool == nil {
		pool = &TablePool{}
	}
	e := &IncrementalEngine{
		topo:  topo,
		pool:  pool,
		order: make([][]int32, topo.NumGS()),
		all:   make([]int, topo.NumGS()),
	}
	for gs := range e.all {
		e.all[gs] = gs
	}
	e.scratch = e.NewTreeScratch()
	return e
}

// Advance moves the engine to time tsec: the delta snapshot, its graph
// frozen so that concurrent repairs only read it, on the engine's first
// instant the second snapshot buffer sized (prime), and under
// hypatia_checks the oracle's one from-scratch snapshot of the instant.
// Fill then solves the instant's trees.
func (e *IncrementalEngine) Advance(tsec float64) {
	e.g = e.topo.deltaSnapshot(tsec, &e.delta).G
	e.tsec = tsec
	if e.delta.Prev() == nil {
		e.prime()
	}
	e.g.Freeze()
	if check.Enabled {
		e.oracleAdvance(tsec)
	}
}

// prime runs in the engine's first instant (the one with no predecessor; a
// time jump does not make another) and gives the second snapshot buffer what
// the second and third instants would otherwise have allocated: adjacency
// and CSR capacity sized from the snapshot just built. The repair scratch of
// every TreeScratch is sized when it is made. An engine's arenas are then a
// cost of its first instant alone — which for a packet run is construction
// (core.NewRun returns after it) — and what later instants allocate is the
// slow creep of rows that outgrow their first size.
func (e *IncrementalEngine) prime() {
	e.delta.primeNext()
}

// Roots returns the roots a destination list names: the list itself, or
// every ground station in index order for nil. The result is the engine's
// and must not be modified.
func (e *IncrementalEngine) Roots(list []int) []int {
	if list == nil {
		return e.all
	}
	return list
}

// TreeVisitor receives one shortest-path tree from Trees: the root ground
// station and the distance (meters, +Inf unreachable) and predecessor (-1
// unreachable, the root its own) arrays over all nodes, as Dijkstra rooted
// at that station's node fills them. The arrays are the engine's and are
// overwritten by the next root: a visitor reads what it needs and returns.
type TreeVisitor func(gs int, dist []float64, prev []int32)

// Trees advances the engine to time tsec and solves one shortest-path tree
// per root ground station (nil = all, in index order), handing each to
// visit before the next root overwrites it. The graph is undirected, so the
// tree rooted at a station is at once the forwarding column toward it
// (prev[v] = v's next hop) and the shortest paths from it.
func (e *IncrementalEngine) Trees(tsec float64, roots []int, visit TreeVisitor) {
	e.Advance(tsec)
	sc := e.scratch
	for _, gs := range e.Roots(roots) {
		e.solve(sc, gs)
		visit(gs, sc.dist, sc.prev)
	}
}

// Step computes the forwarding table for time tsec toward the given
// destination ground stations (nil = all): Advance, then Fill on the
// engine's own scratch. The table comes from the engine's pool; the caller
// owns it and must Release it.
func (e *IncrementalEngine) Step(tsec float64, active []int) *ForwardingTable {
	ft := e.pool.Empty(tsec, e.topo.NumNodes(), e.topo.NumGS())
	e.Advance(tsec)
	e.Fill(ft, e.Roots(active), e.scratch)
	return ft
}

// Fill solves the tree of every root in roots at the instant Advance last
// reached, in sc, and installs its predecessors as the root's next-hop
// column of ft. Fills over disjoint root lists, each with its own scratch,
// may run concurrently: a root's repair reads the frozen graph and writes
// only its own settle order, the scratch and its own column. A root listed
// twice, in one call or in two at once, is a data race.
func (e *IncrementalEngine) Fill(ft *ForwardingTable, roots []int, sc *TreeScratch) {
	for _, gs := range roots {
		e.solve(sc, gs)
		ft.SetDestination(gs, sc.prev)
	}
}

// solve solves the tree rooted at ground station gs into sc.dist/sc.prev:
// a repair over the root's carried settle order, or on first use a
// from-scratch Dijkstra that records it. It is the one tree path: Trees,
// Step and every worker's Fill come through here.
func (e *IncrementalEngine) solve(sc *TreeScratch, gs int) {
	root := e.topo.GSNode(gs)
	if ord := e.order[gs]; ord != nil {
		e.g.RepairSSSPDense(root, sc.dist, sc.prev, ord, &sc.repair)
	} else {
		sc.first.Order = make([]int32, e.g.N())
		sc.dist, sc.prev = e.g.DijkstraScratch(root, sc.dist, sc.prev, &sc.first)
		e.order[gs], sc.first.Order = sc.first.Order, nil
	}
	if check.Enabled {
		// The checked-build oracle bumps a process-global comparison
		// counter so check.sh can assert the differential layer actually
		// ran.
		e.oracleCheck(sc, gs)
	}
}
