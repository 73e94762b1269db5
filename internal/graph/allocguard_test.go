package graph

import (
	"testing"

	"hypatia/internal/check/checktest"
)

// The AllocGuard tests are the allocation contract on this package's hot
// paths; see internal/check/checktest.

// TestAllocGuardDijkstraScratch pins the relax loop plus the indexed-heap
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
