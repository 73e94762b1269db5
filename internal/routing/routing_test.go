package routing

import (
	"math"
	"math/rand"
	"testing"

	"hypatia/internal/check"
	"hypatia/internal/constellation"
	"hypatia/internal/geom"
	"hypatia/internal/graph"
	"hypatia/internal/groundstation"
)

// miniTopo builds a small Kuiper-like constellation with a handful of
// well-spread ground stations for fast tests.
func miniTopo(t *testing.T, policy GSLPolicy) *Topology {
	t.Helper()
	cfg := constellation.Config{
		Name: "Mini",
		Shells: []constellation.Shell{{
			Name: "M1", AltitudeKm: 630, Orbits: 12, SatsPerOrbit: 12,
			IncDeg: 51.9,
		}},
		MinElevDeg: 25,
	}
	c, err := constellation.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gss := []groundstation.GS{
		{ID: 0, Name: "Rio de Janeiro", Position: geom.LLADeg(-22.9068, -43.1729, 0)},
		{ID: 1, Name: "Istanbul", Position: geom.LLADeg(41.0082, 28.9784, 0)},
		{ID: 2, Name: "Nairobi", Position: geom.LLADeg(-1.2921, 36.8219, 0)},
		{ID: 3, Name: "Manila", Position: geom.LLADeg(14.5995, 120.9842, 0)},
	}
	topo, err := NewTopology(c, gss, policy)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func TestNewTopologyValidation(t *testing.T) {
	c, _ := constellation.Generate(constellation.Kuiper())
	if _, err := NewTopology(c, nil, GSLFree); err == nil {
		t.Error("no ground stations accepted")
	}
	if _, err := NewTopology(nil, groundstation.Top100Cities(), GSLFree); err == nil {
		t.Error("nil constellation accepted")
	}
}

func TestNodeNumbering(t *testing.T) {
	topo := miniTopo(t, GSLFree)
	nSat := topo.NumSats()
	if nSat != 144 {
		t.Fatalf("sats = %d", nSat)
	}
	if topo.NumNodes() != 148 {
		t.Fatalf("nodes = %d", topo.NumNodes())
	}
	if topo.GSNode(0) != 144 || topo.GSNode(3) != 147 {
		t.Error("GSNode numbering wrong")
	}
	if topo.IsGS(143) || !topo.IsGS(144) {
		t.Error("IsGS wrong")
	}
	if topo.GSIndex(146) != 2 {
		t.Error("GSIndex wrong")
	}
}

func TestGSIndexPanicsOnSatellite(t *testing.T) {
	topo := miniTopo(t, GSLFree)
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	topo.GSIndex(0)
}

func TestSnapshotEdges(t *testing.T) {
	topo := miniTopo(t, GSLFree)
	s := topo.Snapshot(0)
	// ISL edges: +Grid gives 2 per satellite.
	wantISL := 2 * topo.NumSats()
	if s.G.NumEdges() < wantISL {
		t.Fatalf("edges = %d, want at least %d ISLs", s.G.NumEdges(), wantISL)
	}
	// GSL edges exist: each mid-latitude GS should see at least one
	// satellite of a 144-sat shell at 25 deg min elevation at most times.
	gslEdges := s.G.NumEdges() - wantISL
	if gslEdges == 0 {
		t.Error("no GSL edges at t=0")
	}
	// All edge weights are plausible distances: at least the altitude,
	// at most a few thousand km.
	for v := 0; v < s.G.N(); v++ {
		for _, e := range s.G.Neighbors(v) {
			if e.W < 500e3 || e.W > 6000e3 {
				t.Fatalf("edge %d-%d weight %v m implausible", v, e.To, e.W)
			}
		}
	}
}

func TestSnapshotNearestOnlyHasAtMostOneGSL(t *testing.T) {
	topo := miniTopo(t, GSLNearestOnly)
	s := topo.Snapshot(10)
	for gi := range topo.GroundStations {
		n := len(s.G.Neighbors(topo.GSNode(gi)))
		if n > 1 {
			t.Errorf("GS %d has %d GSLs under nearest-only", gi, n)
		}
	}
}

func TestNearestOnlyPicksNearest(t *testing.T) {
	free := miniTopo(t, GSLFree)
	nearest := miniTopo(t, GSLNearestOnly)
	sf := free.Snapshot(33)
	sn := nearest.Snapshot(33)
	for gi := range free.GroundStations {
		node := free.GSNode(gi)
		fEdges := sf.G.Neighbors(node)
		nEdges := sn.G.Neighbors(node)
		if len(fEdges) == 0 {
			if len(nEdges) != 0 {
				t.Fatalf("GS %d: nearest-only has an edge but free does not", gi)
			}
			continue
		}
		minW := math.Inf(1)
		for _, e := range fEdges {
			if e.W < minW {
				minW = e.W
			}
		}
		if len(nEdges) != 1 || math.Abs(nEdges[0].W-minW) > 1e-6 {
			t.Fatalf("GS %d: nearest-only edge %v, want weight %v", gi, nEdges, minW)
		}
	}
}

func TestPathEndsAtGroundStations(t *testing.T) {
	topo := miniTopo(t, GSLFree)
	s := topo.Snapshot(0)
	path, d := s.Path(0, 2) // Rio -> Nairobi
	if path == nil {
		t.Fatal("no path Rio->Nairobi at t=0")
	}
	if path[0] != topo.GSNode(0) || path[len(path)-1] != topo.GSNode(2) {
		t.Fatalf("path endpoints wrong: %v", path)
	}
	for _, v := range path[1 : len(path)-1] {
		if topo.IsGS(v) {
			t.Fatalf("intermediate GS in path: %v", path)
		}
	}
	if d < geom.Haversine(topo.GroundStations[0].Position, topo.GroundStations[2].Position) {
		t.Errorf("path length %v below great-circle distance", d)
	}
}

func TestRTTAboveGeodesic(t *testing.T) {
	topo := miniTopo(t, GSLFree)
	s := topo.Snapshot(0)
	rtt := s.RTT(0, 1)
	if math.IsInf(rtt, 1) {
		t.Skip("pair disconnected at t=0 in mini constellation")
	}
	geodesic := geom.GeodesicRTT(topo.GroundStations[0].Position, topo.GroundStations[1].Position)
	if rtt <= geodesic {
		t.Errorf("satellite RTT %v <= geodesic %v", rtt, geodesic)
	}
	if rtt > 10*geodesic {
		t.Errorf("satellite RTT %v implausibly large vs geodesic %v", rtt, geodesic)
	}
}

func TestPathMatchesPathLength(t *testing.T) {
	topo := miniTopo(t, GSLFree)
	s := topo.Snapshot(42)
	path, d := s.Path(1, 3)
	if path == nil {
		t.Skip("disconnected")
	}
	if got := s.PathLength(path); math.Abs(got-d) > 1e-6 {
		t.Errorf("PathLength %v != Dijkstra distance %v", got, d)
	}
}

func TestForwardingTableConsistentWithPaths(t *testing.T) {
	topo := miniTopo(t, GSLFree)
	s := topo.Snapshot(7)
	ft := s.ForwardingTable()
	for src := 0; src < topo.NumGS(); src++ {
		for dst := 0; dst < topo.NumGS(); dst++ {
			if src == dst {
				continue
			}
			want, d := s.Path(src, dst)
			got := ft.PathVia(topo, topo.GSNode(src), dst)
			if (want == nil) != (got == nil) {
				t.Fatalf("%d->%d: reachability mismatch", src, dst)
			}
			if want == nil {
				continue
			}
			// Both must have the same length (ties may pick different but
			// equally short routes; with deterministic Dijkstra they are
			// identical).
			if math.Abs(s.PathLength(got)-d) > 1e-6 {
				t.Fatalf("%d->%d: table path length %v, want %v", src, dst, s.PathLength(got), d)
			}
		}
	}
}

func TestForwardingTableDestinationSelf(t *testing.T) {
	topo := miniTopo(t, GSLFree)
	ft := topo.Snapshot(0).ForwardingTable()
	for gs := 0; gs < topo.NumGS(); gs++ {
		node := topo.GSNode(gs)
		if got := ft.NextHop(node, gs); got != int32(node) {
			t.Errorf("NextHop(self) = %d, want %d", got, node)
		}
	}
}

func TestForwardingTableUnreachableIsMinusOne(t *testing.T) {
	// A constellation whose single shell cannot see a polar ground station:
	// forwarding entries toward it must be -1 from everywhere disconnected.
	cfg := constellation.Config{
		Name: "Equatorial",
		Shells: []constellation.Shell{{
			Name: "E1", AltitudeKm: 630, Orbits: 4, SatsPerOrbit: 8,
			IncDeg: 10, WalkerF: 0,
		}},
		MinElevDeg: 30,
	}
	c, err := constellation.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gss := []groundstation.GS{
		{ID: 0, Name: "Quito", Position: geom.LLADeg(-0.18, -78.47, 0)},
		{ID: 1, Name: "NorthPole", Position: geom.LLADeg(89, 0, 0)},
	}
	topo, err := NewTopology(c, gss, GSLFree)
	if err != nil {
		t.Fatal(err)
	}
	s := topo.Snapshot(0)
	ft := s.ForwardingTable()
	if nh := ft.NextHop(topo.GSNode(0), 1); nh != -1 {
		t.Errorf("NextHop toward unreachable pole = %d, want -1", nh)
	}
	if rtt := s.RTT(0, 1); !math.IsInf(rtt, 1) {
		t.Errorf("RTT to pole = %v, want +Inf", rtt)
	}
	if p, _ := s.Path(0, 1); p != nil {
		t.Errorf("path to pole = %v, want nil", p)
	}
}

func TestSatSequenceAndSameSatPath(t *testing.T) {
	topo := miniTopo(t, GSLFree)
	g0, g1 := topo.GSNode(0), topo.GSNode(1)
	pathA := []int{g0, 5, 6, 7, g1}
	pathB := []int{g0, 5, 6, 7, g1}
	pathC := []int{g0, 5, 9, 7, g1}
	pathD := []int{g0, 5, 6, g1}
	if !SameSatPath(topo, pathA, pathB) {
		t.Error("identical paths reported different")
	}
	if SameSatPath(topo, pathA, pathC) {
		t.Error("different middle satellite not detected")
	}
	if SameSatPath(topo, pathA, pathD) {
		t.Error("different length not detected")
	}
	seq := SatSequence(topo, pathA)
	if len(seq) != 3 || seq[0] != 5 || seq[2] != 7 {
		t.Errorf("SatSequence = %v", seq)
	}
}

func TestHopCount(t *testing.T) {
	if HopCount(nil) != 0 {
		t.Error("nil path hop count")
	}
	if HopCount([]int{1}) != 0 {
		t.Error("single node hop count")
	}
	if HopCount([]int{1, 2, 3}) != 2 {
		t.Error("3-node path hop count")
	}
}

func TestSnapshotTimeVariation(t *testing.T) {
	// Path RTT between two fixed ground stations must change over minutes as
	// satellites move — the core LEO dynamic of the paper.
	topo := miniTopo(t, GSLFree)
	var rtts []float64
	for ts := 0.0; ts <= 200; ts += 20 {
		if r := topo.Snapshot(ts).RTT(1, 2); !math.IsInf(r, 1) {
			rtts = append(rtts, r)
		}
	}
	if len(rtts) < 3 {
		t.Skip("pair mostly disconnected in mini constellation")
	}
	min, max := rtts[0], rtts[0]
	for _, r := range rtts {
		min = math.Min(min, r)
		max = math.Max(max, r)
	}
	if max-min < 1e-5 {
		t.Errorf("RTT static over 200s: min=%v max=%v", min, max)
	}
}

func TestFloydWarshallAgreesWithSnapshotDijkstra(t *testing.T) {
	// Cross-validate the two routing computations on a full snapshot, as the
	// paper cross-validates simulator pings against networkx computations.
	topo := miniTopo(t, GSLFree)
	s := topo.Snapshot(100)
	ap := s.G.FloydWarshall()
	for src := 0; src < topo.NumGS(); src++ {
		dist, _ := s.FromGS(src, nil, nil)
		for dst := 0; dst < topo.NumGS(); dst++ {
			fw := ap.Dist(topo.GSNode(src), topo.GSNode(dst))
			dj := dist[topo.GSNode(dst)]
			if math.IsInf(fw, 1) != math.IsInf(dj, 1) {
				t.Fatalf("%d->%d reachability mismatch", src, dst)
			}
			if !math.IsInf(fw, 1) && math.Abs(fw-dj) > 1e-6 {
				t.Fatalf("%d->%d: FW %v vs Dijkstra %v", src, dst, fw, dj)
			}
		}
	}
	_ = graph.Infinity
}

func TestNodePositionsMatchesSnapshot(t *testing.T) {
	topo := miniTopo(t, GSLFree)
	pos := topo.NodePositions(42, nil)
	snap := topo.Snapshot(42)
	if len(pos) != topo.NumNodes() {
		t.Fatalf("len = %d", len(pos))
	}
	for i := range pos {
		if pos[i].Distance(snap.Pos[i]) > 1e-6 {
			t.Fatalf("node %d position differs", i)
		}
	}
	// Slice reuse.
	again := topo.NodePositions(42, pos)
	if &again[0] != &pos[0] {
		t.Error("did not reuse destination slice")
	}
}

func TestSnapshotKShortestPaths(t *testing.T) {
	topo := miniTopo(t, GSLFree)
	snap := topo.Snapshot(0)
	direct, dist := snap.Path(0, 2)
	if direct == nil {
		t.Skip("pair disconnected")
	}
	paths := snap.KShortestPaths(0, 2, 3)
	if len(paths) == 0 {
		t.Fatal("no k-shortest paths for a connected pair")
	}
	if math.Abs(paths[0].Weight-dist) > 1e-6 {
		t.Errorf("first path weight %v != shortest %v", paths[0].Weight, dist)
	}
	for i := 1; i < len(paths); i++ {
		if paths[i].Weight < paths[i-1].Weight-1e-9 {
			t.Error("paths out of order")
		}
	}
	// Disconnected pair: the mini constellation cannot reach a pole GS,
	// but here just use an unreachable time/pair if any; fall back to the
	// guarantee that k=0 is nil.
	if snap.KShortestPaths(0, 2, 0) != nil {
		t.Error("k=0 should be nil")
	}
}

// loopingTable hand-builds a table with a two-node forwarding loop toward
// GS 0: node 0 -> 1 -> 0. The synthetic column stays self-consistent at the
// destination so the hypatia_checks invariant in SetDestination holds; the
// loop under test is between nodes 0 and 1, away from the destination node.
func loopingTable(topo *Topology) *ForwardingTable {
	ft := NewEmptyForwardingTable(0, topo.NumNodes(), topo.NumGS())
	prev := make([]int32, topo.NumNodes())
	for i := range prev {
		prev[i] = -1
	}
	prev[0] = 1
	prev[1] = 0
	dstNode := topo.GSNode(0)
	prev[dstNode] = int32(dstNode)
	ft.SetDestination(0, prev)
	return ft
}

// TestPathViaLoopReturnsUnreachable is the regression test for the old
// behavior of panicking on a forwarding loop in every build: the walk now
// reports the destination unreachable (nil), while the hypatia_checks build
// still asserts loop-freedom and panics.
func TestPathViaLoopReturnsUnreachable(t *testing.T) {
	topo := miniTopo(t, GSLFree)
	ft := loopingTable(topo)
	defer func() {
		r := recover()
		if check.Enabled && r == nil {
			t.Error("hypatia_checks build did not panic on a forwarding loop")
		}
		if !check.Enabled && r != nil {
			t.Errorf("unchecked build panicked on a forwarding loop: %v", r)
		}
	}()
	if path := ft.PathVia(topo, 0, 0); path != nil {
		t.Errorf("PathVia over a looping table = %v, want nil", path)
	}
	// A node outside the loop with a well-formed route is unaffected.
	if got := ft.PathVia(topo, topo.GSNode(0), 0); len(got) != 1 {
		t.Errorf("destination self-walk = %v, want single-node path", got)
	}
}

func TestForwardingTableTimestamp(t *testing.T) {
	topo := miniTopo(t, GSLFree)
	ft := topo.Snapshot(7.5).ForwardingTable()
	if ft.T != 7.5 {
		t.Errorf("table timestamp = %v", ft.T)
	}
}

// TestSnapshotIntoMatchesSnapshot reuses one snapshot arena across many
// instants and both GSL policies, requiring graphs byte-identical to the
// allocating path: same positions, same per-node adjacency (order included),
// same resulting forwarding tables.
func TestSnapshotIntoMatchesSnapshot(t *testing.T) {
	for _, policy := range []GSLPolicy{GSLFree, GSLNearestOnly} {
		topo := miniTopo(t, policy)
		var reused *Snapshot
		for _, tsec := range []float64{0, 13.7, 99.9, 142.3, 200} {
			fresh := topo.Snapshot(tsec)
			reused = topo.SnapshotInto(tsec, reused)
			if reused.T != fresh.T || reused.G.N() != fresh.G.N() {
				t.Fatalf("policy %v t=%v: header differs", policy, tsec)
			}
			for i := range fresh.Pos {
				if reused.Pos[i] != fresh.Pos[i] {
					t.Fatalf("policy %v t=%v: pos[%d] differs", policy, tsec, i)
				}
			}
			for v := 0; v < fresh.G.N(); v++ {
				fe, re := fresh.G.Neighbors(v), reused.G.Neighbors(v)
				if len(fe) != len(re) {
					t.Fatalf("policy %v t=%v: node %d degree %d vs %d", policy, tsec, v, len(re), len(fe))
				}
				for k := range fe {
					if fe[k] != re[k] {
						t.Fatalf("policy %v t=%v: node %d edge %d differs: %+v vs %+v",
							policy, tsec, v, k, re[k], fe[k])
					}
				}
			}
			if !reused.ForwardingTable().Equal(fresh.ForwardingTable()) {
				t.Fatalf("policy %v t=%v: forwarding tables differ", policy, tsec)
			}
		}
	}
}

// TestSnapshotIntoSteadyStateAllocs verifies the arena-reuse promise: after
// warm-up, rebuilding a snapshot allocates nothing.
func TestSnapshotIntoSteadyStateAllocs(t *testing.T) {
	topo := miniTopo(t, GSLFree)
	snap := topo.SnapshotInto(0, nil)
	for _, tsec := range []float64{25, 50, 75, 100} { // warm slabs across edge-count variation
		snap = topo.SnapshotInto(tsec, snap)
	}
	i := 0
	allocs := testing.AllocsPerRun(20, func() {
		i++
		snap = topo.SnapshotInto(float64(i), snap)
	})
	if allocs != 0 {
		t.Errorf("SnapshotInto allocated %v times per rebuild in steady state", allocs)
	}
}

// TestTablePoolRecycling exercises the take/Release lifecycle: a released
// buffer is reused, Release is nil-safe, and (in unchecked builds) a
// repeated Release is tolerated. The hypatia_checks build instead panics on
// the repeat — that path is pinned by TestDoubleReleaseCaught in
// release_checks_test.go.
func TestTablePoolRecycling(t *testing.T) {
	var pool TablePool
	a := pool.take(1, 8, 2)
	prev := []int32{5, 0, 0, 0, 0, 0, 0, 7} // junk column to dirty the buffer
	a.SetDestination(1, prev)
	a.Release()
	if !check.Enabled {
		a.Release() // tolerated repeat; panics under hypatia_checks
	}
	var nilTable *ForwardingTable
	nilTable.Release() // nil-safe

	b := pool.take(2, 8, 2)
	if b != a {
		t.Error("the released table was not reused")
	}
	if b.T != 2 || b.NumNodes != 8 || b.NumGS != 2 {
		t.Errorf("reused table is t=%v %d×%d, want t=2 8×2", b.T, b.NumNodes, b.NumGS)
	}
	// A request larger than any pooled buffer allocates fresh.
	c := pool.take(3, 100, 100)
	if c == a || c.NumNodes != 100 || c.NumGS != 100 {
		t.Errorf("oversize table dims = %d×%d", c.NumNodes, c.NumGS)
	}
}

// TestUseAfterReleaseCaught verifies the hypatia_checks build catches reads
// of a released table.
func TestUseAfterReleaseCaught(t *testing.T) {
	if !check.Enabled {
		t.Skip("requires -tags hypatia_checks")
	}
	var pool TablePool
	ft := pool.take(0, 4, 1)
	ft.Release()
	defer func() {
		if recover() == nil {
			t.Error("NextHop on a released table did not panic under hypatia_checks")
		}
	}()
	ft.NextHop(0, 0)
}

// TestForwardingTableEqual covers the identity predicate used by the
// differential harness.
func TestForwardingTableEqual(t *testing.T) {
	topo := miniTopo(t, GSLFree)
	snap := topo.Snapshot(5)
	a := snap.ForwardingTable()
	b := snap.ForwardingTable()
	if !a.Equal(b) {
		t.Fatal("identical computations not Equal")
	}
	if !a.Equal(a) {
		t.Fatal("table not Equal to itself")
	}
	c := topo.Snapshot(6).ForwardingTable()
	if a.Equal(c) {
		t.Fatal("tables for different instants reported Equal")
	}
	d := NewEmptyForwardingTable(a.T, a.NumNodes, a.NumGS)
	if a.Equal(d) {
		t.Fatal("all-unreachable table reported Equal to a computed one")
	}
}

// TestRandomizedForwardingInvariants checks, for random (src node, dst GS)
// pairs on random-time snapshots: PathVia terminates; whenever the source
// has a next hop the walk reaches the destination; and the walked path's
// geometric length matches the Dijkstra distance (and, for GS sources, the
// Snapshot.Path distance) within tolerance.
func TestRandomizedForwardingInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, policy := range []GSLPolicy{GSLFree, GSLNearestOnly} {
		topo := miniTopo(t, policy)
		for trial := 0; trial < 6; trial++ {
			tsec := rng.Float64() * 200
			snap := topo.Snapshot(tsec)
			ft := snap.ForwardingTable()
			var dist []float64
			var prev []int32
			for pair := 0; pair < 25; pair++ {
				src := rng.Intn(topo.NumNodes())
				dstGS := rng.Intn(topo.NumGS())
				dist, prev = snap.FromGS(dstGS, dist, prev)
				path := ft.PathVia(topo, src, dstGS)
				nh := ft.NextHop(src, dstGS)
				if nh < 0 {
					if path != nil {
						t.Fatalf("policy %v t=%v: src %d has no next hop but PathVia = %v",
							policy, tsec, src, path)
					}
					continue
				}
				if path == nil {
					t.Fatalf("policy %v t=%v: src %d has next hop %d but PathVia = nil",
						policy, tsec, src, nh)
				}
				if last := path[len(path)-1]; last != topo.GSNode(dstGS) {
					t.Fatalf("policy %v t=%v: walk from %d ended at %d, not dst node %d",
						policy, tsec, src, last, topo.GSNode(dstGS))
				}
				got := snap.PathLength(path)
				want := dist[src]
				if math.Abs(got-want) > 1e-6*(1+want) {
					t.Fatalf("policy %v t=%v: walk length %v vs Dijkstra distance %v",
						policy, tsec, got, want)
				}
				if topo.IsGS(src) {
					_, d := snap.Path(topo.GSIndex(src), dstGS)
					if math.Abs(got-d) > 1e-6*(1+d) {
						t.Fatalf("policy %v t=%v: walk length %v vs Snapshot.Path distance %v",
							policy, tsec, got, d)
					}
				}
			}
		}
	}
}
