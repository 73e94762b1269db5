package routing

import (
	"testing"

	"hypatia/internal/constellation"
	"hypatia/internal/groundstation"
)

func benchTopo(tb testing.TB, policy GSLPolicy) *Topology {
	tb.Helper()
	c, err := constellation.Generate(constellation.Kuiper())
	if err != nil {
		tb.Fatal(err)
	}
	topo, err := NewTopology(c, groundstation.Top100Cities(), policy)
	if err != nil {
		tb.Fatal(err)
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
// TestAllocGuardBenchForwardingTableFull holds its allocations per sweep.
func BenchmarkForwardingTableFull(b *testing.B) {
	sweep := fullTableSweep(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sweep()
	}
}

// fullTableSweep returns BenchmarkForwardingTableFull's op: one
// specification sweep over every destination of K1's snapshot at t = 0.
func fullTableSweep(tb testing.TB) func() {
	snap := benchTopo(tb, GSLFree).Snapshot(0)
	return func() { _ = snap.ForwardingTable() }
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
// steady-state allocations should be zero. The warm-up walks the full
// 200-instant cycle before the timer starts, so every arena has reached its
// high-water mark (edge counts and visibility sets differ per instant) and
// the timed loop measures pure reuse rather than first-cycle growth.
// TestAllocGuardBenchSnapshotInto holds the same region to its budget.
func BenchmarkSnapshotInto(b *testing.B) {
	next := warmSnapshotInto(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		next()
	}
}

// warmSnapshotInto walks K1 through the 200-instant cycle once and returns
// BenchmarkSnapshotInto's op: the next instant of the cycle, built into the
// same snapshot.
func warmSnapshotInto(tb testing.TB) func() {
	topo := benchTopo(tb, GSLFree)
	var s *Snapshot
	for i := 0; i < 200; i++ {
		s = topo.SnapshotInto(float64(i), s)
	}
	i := 0
	return func() {
		s = topo.SnapshotInto(float64(i%200), s)
		i++
	}
}
