package routing

import (
	"testing"

	"hypatia/internal/constellation"
	"hypatia/internal/graph"
	"hypatia/internal/groundstation"
)

func benchTopo(b *testing.B, policy GSLPolicy) *Topology {
	b.Helper()
	c, err := constellation.Generate(constellation.Kuiper())
	if err != nil {
		b.Fatal(err)
	}
	topo, err := NewTopology(c, groundstation.Top100Cities(), policy)
	if err != nil {
		b.Fatal(err)
	}
	return topo
}

// BenchmarkSnapshot measures the cost of building one instantaneous
// topology graph (positions + ISL weights + GSL visibility) for Kuiper K1
// with 100 ground stations — incurred once per forwarding-state update.
func BenchmarkSnapshot(b *testing.B) {
	topo := benchTopo(b, GSLFree)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = topo.Snapshot(float64(i % 200))
	}
}

// BenchmarkForwardingTableFull measures a full 100-destination forwarding
// state computation on one snapshot: the from-scratch specification sweep.
func BenchmarkForwardingTableFull(b *testing.B) {
	topo := benchTopo(b, GSLFree)
	snap := topo.Snapshot(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = snap.ForwardingTable()
	}
}

// Ablation: GSL attachment policy. Nearest-only reduces graph degree (one
// GSL edge per ground station) at the cost of longer paths.
func BenchmarkAblationSnapshotGSLFree(b *testing.B) {
	topo := benchTopo(b, GSLFree)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = topo.Snapshot(float64(i % 200))
	}
}

func BenchmarkAblationSnapshotGSLNearest(b *testing.B) {
	topo := benchTopo(b, GSLNearestOnly)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = topo.Snapshot(float64(i % 200))
	}
}

// BenchmarkSnapshotInto measures the arena-reusing snapshot path: position
// slabs, graph edge slabs, and visibility scratch are all recycled, so
// steady-state allocations should be zero. The warm-up loop walks the full
// 200-instant cycle before the timer starts, so every arena has reached its
// high-water mark (edge counts and visibility sets differ per instant) and
// the timed loop measures pure reuse rather than first-cycle growth — the
// same steady state the //hypatia:noalloc annotation on SnapshotInto
// proves and the AllocGuard test enforces.
func BenchmarkSnapshotInto(b *testing.B) {
	topo := benchTopo(b, GSLFree)
	var s *Snapshot
	for i := 0; i < 200; i++ {
		s = topo.SnapshotInto(float64(i), s)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s = topo.SnapshotInto(float64(i%200), s)
	}
}

// BenchmarkForwardingTablePooled measures the full-table sweep with every
// reuse layer engaged: pooled table buffers plus shared Dijkstra scratch.
func BenchmarkForwardingTablePooled(b *testing.B) {
	topo := benchTopo(b, GSLFree)
	snap := topo.Snapshot(0)
	var pool TablePool
	var dist []float64
	var prev []int32
	var sc graph.Scratch
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ft := pool.Empty(snap.T, topo.NumNodes(), topo.NumGS())
		for gs := 0; gs < topo.NumGS(); gs++ {
			dist, prev = snap.FromGSScratch(gs, dist, prev, &sc)
			ft.SetDestination(gs, prev)
		}
		ft.Release()
	}
}
