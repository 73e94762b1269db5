package graph

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"hypatia/internal/check"
)

// edgeKey identifies an undirected edge for test bookkeeping.
type edgeKey struct{ a, b int32 }

// edgeSet extracts a graph's undirected edge set with weights.
func edgeSet(g *Graph) map[edgeKey]float64 {
	m := map[edgeKey]float64{}
	for v := 0; v < g.N(); v++ {
		for _, e := range g.Neighbors(v) {
			if int(e.To) > v {
				m[edgeKey{int32(v), e.To}] = e.W
			}
		}
	}
	return m
}

// fromEdgeSet builds a graph over n nodes from an edge set.
func fromEdgeSet(n int, m map[edgeKey]float64) *Graph {
	g := New(n)
	// Deterministic insertion order is irrelevant for results (Dijkstra's
	// output is canonical) but keeps failures reproducible.
	for v := 0; v < n; v++ {
		for u := v + 1; u < n; u++ {
			if w, ok := m[edgeKey{int32(v), int32(u)}]; ok {
				g.AddEdge(v, u, w)
			}
		}
	}
	return g
}

// randomEdgeSet draws a connected-ish random graph. Integer weights force
// shortest-path ties; float weights exercise the generic drift case.
func randomEdgeSet(rng *rand.Rand, n int, extraEdges int, intWeights bool) map[edgeKey]float64 {
	w := func() float64 {
		if intWeights {
			return float64(1 + rng.Intn(4))
		}
		return 1 + 10*rng.Float64()
	}
	m := map[edgeKey]float64{}
	for v := 1; v < n; v++ {
		u := rng.Intn(v)
		m[edgeKey{int32(u), int32(v)}] = w()
	}
	for i := 0; i < extraEdges; i++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a == b {
			continue
		}
		if a > b {
			a, b = b, a
		}
		m[edgeKey{int32(a), int32(b)}] = w()
	}
	return m
}

// mutateEdgeSet applies k random mutations — weight drifts, removals, and
// insertions — and returns the new edge set.
func mutateEdgeSet(rng *rand.Rand, n int, old map[edgeKey]float64, k int, intWeights bool) map[edgeKey]float64 {
	m := map[edgeKey]float64{}
	for key, w := range old {
		m[key] = w
	}
	keys := make([]edgeKey, 0, len(m))
	for key := range old {
		keys = append(keys, key)
	}
	for i := 0; i < k; i++ {
		switch op := rng.Intn(3); {
		case op == 0 && len(keys) > 0: // drift
			key := keys[rng.Intn(len(keys))]
			if _, ok := m[key]; ok {
				if intWeights {
					m[key] = float64(1 + rng.Intn(4))
				} else {
					m[key] *= 0.8 + 0.4*rng.Float64()
				}
			}
		case op == 1 && len(keys) > 0: // remove
			delete(m, keys[rng.Intn(len(keys))])
		default: // insert
			a, b := rng.Intn(n), rng.Intn(n)
			if a == b {
				continue
			}
			if a > b {
				a, b = b, a
			}
			if intWeights {
				m[edgeKey{int32(a), int32(b)}] = float64(1 + rng.Intn(4))
			} else {
				m[edgeKey{int32(a), int32(b)}] = 1 + 10*rng.Float64()
			}
		}
	}
	return m
}

func sameSSSP(t *testing.T, tag string, dist, wantDist []float64, prev, wantPrev []int32) {
	t.Helper()
	for i := range dist {
		if dist[i] != wantDist[i] || prev[i] != wantPrev[i] {
			t.Fatalf("%s: node %d: got (dist=%v, prev=%d), scratch Dijkstra gives (dist=%v, prev=%d)",
				tag, i, dist[i], prev[i], wantDist[i], wantPrev[i])
		}
	}
}

// TestDiffIntoReconstructs proves the changed-edge list is exactly the set
// difference: applying it to the old edge set reproduces the new one.
func TestDiffIntoReconstructs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var sc DiffScratch
	for trial := 0; trial < 50; trial++ {
		n := 4 + rng.Intn(30)
		oldSet := randomEdgeSet(rng, n, rng.Intn(2*n), trial%2 == 0)
		newSet := mutateEdgeSet(rng, n, oldSet, rng.Intn(12), trial%2 == 0)
		oldG, newG := fromEdgeSet(n, oldSet), fromEdgeSet(n, newSet)
		changes := DiffInto(oldG, newG, nil, &sc)
		applied := map[edgeKey]float64{}
		for k, w := range oldSet {
			applied[k] = w
		}
		for _, ch := range changes {
			if ch.A >= ch.B {
				t.Fatalf("change %+v not canonical (A < B)", ch)
			}
			key := edgeKey{ch.A, ch.B}
			if ch.OldW >= 0 && applied[key] != ch.OldW {
				t.Fatalf("change %+v: old weight disagrees with edge set (%v)", ch, applied[key])
			}
			if ch.OldW < 0 {
				if _, ok := applied[key]; ok {
					t.Fatalf("change %+v claims insertion but edge existed", ch)
				}
			}
			if ch.NewW < 0 {
				delete(applied, key)
			} else {
				applied[key] = ch.NewW
			}
		}
		if len(applied) != len(newSet) {
			t.Fatalf("trial %d: applying diff gives %d edges, want %d", trial, len(applied), len(newSet))
		}
		for k, w := range newSet {
			if applied[k] != w {
				t.Fatalf("trial %d: edge %v = %v after diff, want %v", trial, k, applied[k], w)
			}
		}
		if got := DiffInto(oldG, oldG, changes, &sc); len(got) != 0 {
			t.Fatalf("diff of identical graphs nonempty: %v", got)
		}
	}
}

// settleOrder returns the nodes in Dijkstra's settle order for dist — the
// order RepairSSSPDense carries from one repair to the next.
func settleOrder(dist []float64) []int32 {
	order := make([]int32, len(dist))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int { return orderCmp(dist, a, b) })
	return order
}

// TestRepairSSSPMatchesDijkstra is the core property: re-solving over the
// old solution's settle order is bitwise identical to running Dijkstra from
// scratch on the new graph — distances and predecessors both — for float
// and tie-heavy integer weights alike, whatever the order's quality.
func TestRepairSSSPMatchesDijkstra(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	var rsc RepairScratch
	for trial := 0; trial < 120; trial++ {
		n := 4 + rng.Intn(40)
		intW := trial%3 == 0
		oldSet := randomEdgeSet(rng, n, rng.Intn(3*n), intW)
		newSet := mutateEdgeSet(rng, n, oldSet, 1+rng.Intn(2+n/2), intW)
		oldG, newG := fromEdgeSet(n, oldSet), fromEdgeSet(n, newSet)
		src := rng.Intn(n)
		wantDist, wantPrev := newG.Dijkstra(src, nil, nil)

		// Seeded with the old solution's settle order, as the engine does:
		// the heap's pop order, which is the (dist, id) order.
		order := make([]int32, n)
		dist, prev := oldG.DijkstraScratch(src, nil, nil, &Scratch{Order: order})
		if want := settleOrder(dist); !slices.Equal(order, want) {
			t.Fatalf("trial %d: recorded pop order %v, (dist, id) order %v", trial, order, want)
		}
		newG.RepairSSSPDense(src, dist, prev, order, &rsc)
		sameSSSP(t, "RepairSSSPDense", dist, wantDist, prev, wantPrev)
		// The maintained order must remain a usable permutation: a second
		// repair over it must reproduce the same solution.
		newG.RepairSSSPDense(src, dist, prev, order, &rsc)
		sameSSSP(t, "RepairSSSPDense/again", dist, wantDist, prev, wantPrev)

		// A deliberately stale (identity) order over garbage arrays: order
		// affects cost only, and prior dist/prev are never read.
		for i := range order {
			order[i] = int32(i)
			dist[i] = -1
			prev[i] = -7
		}
		newG.RepairSSSPDense(src, dist, prev, order, &rsc)
		sameSSSP(t, "RepairSSSPDense/staleOrder", dist, wantDist, prev, wantPrev)
	}

	// An order that was never a settle order of anything (a random
	// permutation) over sparse graphs, most of them disconnected, with
	// weights in {1, 2, 3}: nodes swept before anything reaches them, nodes
	// nothing ever reaches, and ties everywhere.
	disconnected := 0
	for trial := 0; trial < 2000; trial++ {
		g, src, order := randomSparseCase(rng, 1)
		popOrder := make([]int32, g.N())
		wantDist, wantPrev := g.DijkstraScratch(src, nil, nil, &Scratch{Order: popOrder})
		if want := settleOrder(wantDist); !slices.Equal(popOrder, want) {
			t.Fatalf("sparse trial %d: recorded pop order %v, (dist, id) order %v", trial, popOrder, want)
		}
		if slices.Contains(wantPrev, -1) {
			disconnected++
		}
		dist, prev := make([]float64, g.N()), make([]int32, g.N())
		g.RepairSSSPDense(src, dist, prev, order, &rsc)
		sameSSSP(t, "RepairSSSPDense/randomOrder", dist, wantDist, prev, wantPrev)
	}
	if disconnected < 500 {
		t.Fatalf("only %d of 2000 sparse cases were disconnected; the unreached path is not exercised", disconnected)
	}
}

// TestRepairRejectsNonPermutation: an order that lists a node twice is a
// caller bug the repair must not paper over.
func TestRepairRejectsNonPermutation(t *testing.T) {
	g := fromEdgeSet(3, map[edgeKey]float64{{0, 1}: 1, {1, 2}: 1})
	defer func() {
		if recover() == nil {
			t.Error("order {0, 1, 1} accepted")
		}
	}()
	g.RepairSSSPDense(0, make([]float64, 3), make([]int32, 3), []int32{0, 1, 1}, &RepairScratch{})
}

// randomSparseCase draws a graph of up to 31 nodes with up to 3n random
// edges (no spanning tree, so often disconnected) of integer weight
// minW..minW+2, a source, and a random permutation to repair over.
func randomSparseCase(rng *rand.Rand, minW int) (*Graph, int, []int32) {
	n := 2 + rng.Intn(30)
	set := map[edgeKey]float64{}
	for i := rng.Intn(3 * n); i > 0; i-- {
		a, b := rng.Intn(n), rng.Intn(n)
		if a == b {
			continue
		}
		if a > b {
			a, b = b, a
		}
		set[edgeKey{int32(a), int32(b)}] = float64(minW + rng.Intn(3))
	}
	order := make([]int32, n)
	for i, v := range rng.Perm(n) {
		order[i] = int32(v)
	}
	return fromEdgeSet(n, set), rng.Intn(n), order
}

// TestRepairZeroWeightEdges pins what the repair guarantees outside its
// contract, on graphs with zero-weight edges (AddEdge admits them; no
// topology emits one). Dijkstra pops a node first reached over a zero edge
// straight after its discoverer whatever its id, so its predecessors are not
// the (dist, id) rule's and the repair's differ from them. What holds:
// distances bitwise equal to Dijkstra's and Bellman-Ford's, and prev a
// loop-free tree in which every predecessor achieves its node's distance.
func TestRepairZeroWeightEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	var rsc RepairScratch
	if check.Enabled {
		// The checked build refuses the input instead.
		g := fromEdgeSet(2, map[edgeKey]float64{{0, 1}: 0})
		defer func() {
			if recover() == nil {
				t.Error("hypatia_checks build repaired over a zero-weight edge")
			}
		}()
		g.RepairSSSPDense(0, make([]float64, 2), make([]int32, 2), []int32{0, 1}, &rsc)
		return
	}
	prevDiffers := 0
	for trial := 0; trial < 2000; trial++ {
		g, src, order := randomSparseCase(rng, 0)
		n := g.N()
		wantDist, wantPrev := g.Dijkstra(src, nil, nil)
		bfDist, _ := g.BellmanFord(src)
		dist, prev := make([]float64, n), make([]int32, n)
		g.RepairSSSPDense(src, dist, prev, order, &rsc)
		for v := 0; v < n; v++ {
			if dist[v] != wantDist[v] || dist[v] != bfDist[v] {
				t.Fatalf("trial %d node %d: repaired dist %v, Dijkstra %v, Bellman-Ford %v", trial, v, dist[v], wantDist[v], bfDist[v])
			}
			if prev[v] != wantPrev[v] {
				prevDiffers++
			}
		}
		checkAchievingTree(t, g, src, dist, prev)
	}
	if prevDiffers == 0 {
		t.Error("repair matched Dijkstra's predecessors on every zero-weight case; the positive-weight contract can be widened")
	}
}

// checkAchievingTree asserts prev is a shortest-path tree for dist: the
// source its own predecessor, unreachable nodes at -1, every other node's
// predecessor a neighbour whose relaxation gives exactly the node's
// distance, and every walk up the tree ending at the source.
func checkAchievingTree(t *testing.T, g *Graph, src int, dist []float64, prev []int32) {
	t.Helper()
	for v := 0; v < g.N(); v++ {
		switch {
		case v == src:
			if prev[v] != int32(src) {
				t.Fatalf("prev[src] = %d", prev[v])
			}
		case math.IsInf(dist[v], 1):
			if prev[v] != -1 {
				t.Fatalf("unreachable node %d has prev %d", v, prev[v])
			}
		default:
			if PathFromPrev(prev, src, v) == nil {
				t.Fatalf("node %d reachable (dist %v) but prev tree yields no path", v, dist[v])
			}
			achieved := false
			for _, e := range g.Neighbors(v) {
				if e.To == prev[v] && dist[prev[v]]+e.W == dist[v] {
					achieved = true
					break
				}
			}
			if !achieved {
				t.Fatalf("node %d: prev %d does not achieve dist %v", v, prev[v], dist[v])
			}
		}
	}
}

// TestRepairSSSPChain carries one solution and its settle order through a
// long mutation chain, repairing in place at every step — the exact usage
// pattern of the incremental forwarding-state engine.
func TestRepairSSSPChain(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var rsc RepairScratch
	n := 30
	cur := randomEdgeSet(rng, n, 2*n, false)
	src := 7
	dist, prev := fromEdgeSet(n, cur).Dijkstra(src, nil, nil)
	order := settleOrder(dist)
	for step := 0; step < 60; step++ {
		cur = mutateEdgeSet(rng, n, cur, 1+rng.Intn(6), step%4 == 0)
		g := fromEdgeSet(n, cur)
		g.RepairSSSPDense(src, dist, prev, order, &rsc)
		wantDist, wantPrev := g.Dijkstra(src, nil, nil)
		sameSSSP(t, "chain", dist, wantDist, prev, wantPrev)
	}
}

// TestRepairSSSPBellmanFord cross-checks the repaired solution against the
// algorithmically independent Bellman-Ford fixpoint: distances bitwise
// equal, predecessor tree loop-free and achieving those distances.
func TestRepairSSSPBellmanFord(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	var rsc RepairScratch
	for trial := 0; trial < 40; trial++ {
		n := 4 + rng.Intn(25)
		intW := trial%2 == 0
		oldSet := randomEdgeSet(rng, n, rng.Intn(2*n), intW)
		newSet := mutateEdgeSet(rng, n, oldSet, 1+rng.Intn(8), intW)
		oldG, newG := fromEdgeSet(n, oldSet), fromEdgeSet(n, newSet)
		src := rng.Intn(n)
		dist, prev := oldG.Dijkstra(src, nil, nil)
		newG.RepairSSSPDense(src, dist, prev, settleOrder(dist), &rsc)

		bfDist, _ := newG.BellmanFord(src)
		for v := range bfDist {
			if dist[v] != bfDist[v] {
				t.Fatalf("trial %d node %d: repaired dist %v, Bellman-Ford %v", trial, v, dist[v], bfDist[v])
			}
		}
		checkAchievingTree(t, newG, src, dist, prev)
	}
}

// FuzzRepairSSSP drives the repair with fuzzer-chosen topology mutations
// and a fuzzer-chosen staleness of the carried order (that many random
// transpositions of the old solution's settle order); the oracle is always
// a from-scratch Dijkstra on the mutated graph.
func FuzzRepairSSSP(f *testing.F) {
	f.Add(int64(1), 10, 8, false, 0)
	f.Add(int64(2), 25, 40, true, 3)
	f.Add(int64(3), 6, 2, false, 50)
	f.Add(int64(4), 50, 100, true, 400)
	// 40 mutations cut 3 of these 16 nodes off the source, and 400
	// transpositions leave nothing of the settle order: nodes swept before
	// anything reaches them, some never reached.
	f.Add(int64(18), 16, 40, true, 400)
	f.Fuzz(func(t *testing.T, seed int64, n, mutations int, intW bool, stale int) {
		if n < 2 || n > 200 || mutations < 0 || mutations > 400 || stale < 0 || stale > 400 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		var rsc RepairScratch
		oldSet := randomEdgeSet(rng, n, rng.Intn(3*n), intW)
		newSet := mutateEdgeSet(rng, n, oldSet, mutations, intW)
		oldG, newG := fromEdgeSet(n, oldSet), fromEdgeSet(n, newSet)
		src := rng.Intn(n)
		dist, prev := oldG.Dijkstra(src, nil, nil)
		order := settleOrder(dist)
		for i := 0; i < stale; i++ {
			a, b := rng.Intn(n), rng.Intn(n)
			order[a], order[b] = order[b], order[a]
		}
		newG.RepairSSSPDense(src, dist, prev, order, &rsc)
		wantDist, wantPrev := newG.Dijkstra(src, nil, nil)
		for i := range dist {
			if dist[i] != wantDist[i] || prev[i] != wantPrev[i] {
				t.Fatalf("node %d: repaired (dist=%v, prev=%d) != scratch (dist=%v, prev=%d)",
					i, dist[i], prev[i], wantDist[i], wantPrev[i])
			}
		}
	})
}

// TestRepairConcurrentOnFrozenGraph runs repairs from several sources at
// once over one frozen graph, each goroutine with its own arrays, order and
// scratch, as the forwarding-state producer's workers do. Every solution
// must equal the serial Dijkstra's; under -race any write a repair makes to
// the shared graph (the CSR mirror built lazily instead of by Freeze) is a
// reported race.
func TestRepairConcurrentOnFrozenGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const n, sources, workers = 300, 12, 4
	oldSet := randomEdgeSet(rng, n, 3*n, false)
	oldG := fromEdgeSet(n, oldSet)
	newG := fromEdgeSet(n, mutateEdgeSet(rng, n, oldSet, n/2, false))
	type want struct {
		dist  []float64
		prev  []int32
		order []int32
	}
	wants := make([]want, sources)
	for src := range wants {
		order := make([]int32, n)
		oldG.DijkstraScratch(src, nil, nil, &Scratch{Order: order})
		dist, prev := newG.Dijkstra(src, nil, nil)
		wants[src] = want{dist, prev, order}
	}
	newG.Freeze()
	errs := make(chan string, sources)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sc RepairScratch
			dist, prev := make([]float64, n), make([]int32, n)
			for src := w; src < sources; src += workers {
				newG.RepairSSSPDense(src, dist, prev, wants[src].order, &sc)
				if !slices.Equal(dist, wants[src].dist) || !slices.Equal(prev, wants[src].prev) {
					errs <- fmt.Sprintf("source %d: concurrent repair differs from serial Dijkstra", src)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// driftingMesh rebuilds g as instant k of a slowly moving mesh: side×side
// nodes on a grid, each linked to its right and lower neighbours and its
// lower-right diagonal, weighted by Euclidean length. Every node circles
// its grid point with a phase of its own, so every weight drifts a little
// at every instant and the settle order drifts with it, as a
// constellation's does between 100 ms instants.
func driftingMesh(g *Graph, side, k int) {
	g.Reset(side * side)
	pos := func(r, c int) (x, y float64) {
		ph := float64(k)*2*math.Pi/4000 + float64(r*7+c*3)
		return float64(c) + 0.3*math.Sin(ph), float64(r) + 0.3*math.Cos(1.3*ph)
	}
	link := func(r, c, r2, c2 int) {
		if r2 >= side || c2 >= side {
			return
		}
		x1, y1 := pos(r, c)
		x2, y2 := pos(r2, c2)
		g.AddEdge(r*side+c, r2*side+c2, math.Hypot(x2-x1, y2-y1))
	}
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			link(r, c, r, c+1)
			link(r, c, r+1, c)
			link(r, c, r+1, c+1)
		}
	}
}

// TestTightenOrderMatchesHeapsort: the insertion refresh and the heapsort
// fallback produce the same permutation, the settle order of dist, from an
// almost sorted order and from a shuffled one, with tied and infinite
// distances among the keys.
func TestTightenOrderMatchesHeapsort(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(300)
		dist := make([]float64, n)
		for i := range dist {
			switch rng.Intn(8) {
			case 0:
				dist[i] = Infinity
			case 1:
				dist[i] = float64(rng.Intn(4))
			default:
				dist[i] = 100 * rng.Float64()
			}
		}
		order := settleOrder(dist)
		if trial%2 == 0 {
			for s := 0; s < n/10; s++ { // a few neighbouring swaps
				i := rng.Intn(n)
				j := min(n-1, i+1+rng.Intn(3))
				order[i], order[j] = order[j], order[i]
			}
		} else {
			rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
		}
		heap := slices.Clone(order)
		sortByDist(heap, dist)
		tightenOrder(order, dist)
		if !slices.Equal(order, heap) {
			t.Fatalf("trial %d: insertion refresh %v, heapsort %v", trial, order, heap)
		}
	}
}

// TestRepairOrderStaysTight chains 600 repairs over a mesh whose every
// weight drifts slightly at every step, carrying one settle order from the
// first Dijkstra onward as the forwarding-state engine does. At every step
// the repair must equal a fresh Dijkstra bitwise and leave order a
// permutation; and the order must stay tight: over the last 100 steps the
// sweep may send at most n/128 nodes per repair through the second pass.
// With the heapsort alone, which fires only once the heap pops exceed n/8,
// the count climbs to well over that as the chain grows.
func TestRepairOrderStaysTight(t *testing.T) {
	const side, steps, window = 24, 600, 100
	n := side * side
	src := n/2 + side/2
	g := New(n)
	driftingMesh(g, side, 0)
	order := make([]int32, n)
	dist, prev := g.DijkstraScratch(src, nil, nil, &Scratch{Order: order})
	var sc RepairScratch
	var want Scratch
	var wantDist []float64
	var wantPrev []int32
	seen := make([]bool, n)
	lastSecondPass := 0
	for k := 1; k <= steps; k++ {
		driftingMesh(g, side, k)
		before := sc.secondPass
		g.RepairSSSPDense(src, dist, prev, order, &sc)
		wantDist, wantPrev = g.DijkstraScratch(src, wantDist, wantPrev, &want)
		sameSSSP(t, fmt.Sprintf("step %d", k), dist, wantDist, prev, wantPrev)
		clear(seen)
		for _, v := range order {
			if seen[v] {
				t.Fatalf("step %d: order lists node %d twice", k, v)
			}
			seen[v] = true
		}
		if k > steps-window {
			lastSecondPass += sc.secondPass - before
		}
	}
	if bound := window * n / 128; lastSecondPass > bound {
		t.Errorf("%d second-pass nodes over the last %d repairs, bound %d: the carried order has decayed",
			lastSecondPass, window, bound)
	}
	t.Logf("%d second-pass nodes over the last %d repairs (%.2f per repair, n = %d)",
		lastSecondPass, window, float64(lastSecondPass)/window, n)
}
