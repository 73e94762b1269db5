package routing

import (
	"math"
	"runtime"
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

// BenchmarkRepairChained measures the repair chain the forwarding-state
// producer runs: K1 + 100 cities, one serial Step toward every city per
// instant, chained over 800 instants — 80 s at the paper's 100 ms cadence,
// and 800 s at Fig 9's 1 s step. Each op is one whole chain on a fresh
// engine, whose first instant (a from-scratch Dijkstra per root) stays
// outside the timer. It reports ns per tree, the serial advance included,
// and second-pass nodes per tree: the measure of how tight the carried
// settle orders stay as the chain grows.
func BenchmarkRepairChained(b *testing.B) {
	const instants = 800
	topo := benchTopo(b, GSLFree)
	for _, step := range []struct {
		name string
		dt   float64
	}{{"step=100ms", 0.1}, {"step=1s", 1}} {
		b.Run(step.name, func(b *testing.B) {
			secondPass := 0
			b.StopTimer()
			for i := 0; i < b.N; i++ {
				e := NewIncrementalEngine(topo, nil)
				e.Step(0, nil).Release()
				before := e.scratch.repair.SecondPass()
				b.StartTimer()
				for k := 1; k <= instants; k++ {
					e.Step(float64(k)*step.dt, nil).Release()
				}
				b.StopTimer()
				secondPass += e.scratch.repair.SecondPass() - before
			}
			trees := float64(b.N * instants * topo.NumGS())
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/trees, "ns/tree")
			b.ReportMetric(float64(secondPass)/trees, "second-pass/tree")
		})
	}
}

// BenchmarkSplitChained measures the split the forwarding-state producer
// drives, on fstate_k1's shape: K1 + 100 cities, every city a root, at
// GOMAXPROCS 2, chained over 800 instants at 100 ms. Each instant draws a
// table, and each Solve names the next instant, so its graph is built while
// this one's trees run, as in a run. Each op is one whole chain on a fresh
// engine, whose first instant stays outside the timer. It reports ns per
// instant. BenchmarkRepairChained times the serial Step, which has no
// second worker to overlap with.
func BenchmarkSplitChained(b *testing.B) {
	const instants = 800
	topo := benchTopo(b, GSLFree)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	b.StopTimer()
	for range b.N {
		var ft *ForwardingTable
		split := NewIncrementalEngine(topo, nil).NewSplit(nil, func(_, gs int, _ []float64, prev []int32) {
			ft.SetDestination(gs, prev)
		})
		for k := 0; k <= instants; k++ {
			if k == 1 {
				b.StartTimer()
			}
			next := math.NaN()
			if k < instants {
				next = 0.1 * float64(k+1)
			}
			ft = split.Table(0.1 * float64(k))
			split.Solve(0.1*float64(k), next)
			ft.Release()
		}
		b.StopTimer()
		split.Close()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*instants), "ns/instant")
}
