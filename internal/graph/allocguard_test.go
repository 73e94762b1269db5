package graph

import (
	"testing"

	"hypatia/internal/check/checktest"
)

// The AllocGuard tests are the allocation contract on this package's hot
// paths; see internal/check/checktest.

// TestAllocGuardDijkstraScratch pins the relax loop plus the bucket-queue
// workspace: with warmed dist/prev slabs and scratch, a full
// single-source sweep must not allocate.
func TestAllocGuardDijkstraScratch(t *testing.T) {
	const n = 256
	g := New(n)
	for i := 0; i < n; i++ {
		g.AddEdge(i, (i+1)%n, float64(1+i%7))
		g.AddEdge(i, (i+17)%n, float64(2+i%5))
	}
	var dist []float64
	var prev []int32
	var sc Scratch
	src := 0
	checktest.AllocGuard(t, "Graph.DijkstraScratch", 0, 1, func() {
		dist, prev = g.DijkstraScratch(src, dist, prev, &sc)
		src = (src + 1) % n
	})
}

// TestAllocGuardResetAddEdge pins the graph-arena reuse path snapshots
// rebuild through every instant: Reset keeps the adjacency slabs, so
// re-adding the edge set allocates nothing once capacities are warm.
func TestAllocGuardResetAddEdge(t *testing.T) {
	const n = 128
	g := New(n)
	checktest.AllocGuard(t, "Graph.Reset+AddEdge", 0, 1, func() {
		g.Reset(n)
		for i := 0; i < n; i++ {
			g.AddEdge(i, (i+1)%n, 1.5)
			g.AddEdge(i, (i+31)%n, 2.5)
		}
	})
}

// TestAllocGuardRepairRefresh pins a dense repair whose order refresh
// fires: the repairs alternate between two instants of a drifting mesh 300
// steps apart, so every one sweeps an order the other left and re-sorts it
// by insertion. The refresh sorts in place, so a warmed repair allocates
// nothing.
func TestAllocGuardRepairRefresh(t *testing.T) {
	const side = 24
	n := side * side
	src := n / 2
	gs := [2]*Graph{New(n), New(n)}
	driftingMesh(gs[0], side, 0)
	driftingMesh(gs[1], side, 300)
	gs[0].Freeze()
	gs[1].Freeze()
	order := make([]int32, n)
	dist, prev := gs[0].DijkstraScratch(src, nil, nil, &Scratch{Order: order})
	var sc RepairScratch
	sc.Reserve(n)
	k := 0
	repair := func() {
		k++
		gs[k%2].RepairSSSPDense(src, dist, prev, order, &sc)
	}
	before := sc.secondPass
	repair()
	if got := sc.secondPass - before; got*256 <= n {
		t.Fatalf("a repair sent %d nodes through the second pass; the refresh needs more than %d", got, n/256)
	}
	checktest.AllocGuard(t, "Graph.RepairSSSPDense with refresh", 0, 1, repair)
}
