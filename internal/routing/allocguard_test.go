package routing

import (
	"runtime"
	"testing"

	"hypatia/internal/check"
	"hypatia/internal/check/checktest"
	"hypatia/internal/constellation"
	"hypatia/internal/groundstation"
)

// The AllocGuard tests are the runtime half of the //hypatia:noalloc
// contract on this package's hot paths; see internal/check/checktest.

// TestAllocGuardSnapshotInto pins the arena-reusing snapshot path: after a
// warm cycle over the instants the guard revisits, position slabs, graph
// edge slabs, and visibility scratch are all recycled, so building the
// next instant's snapshot allocates nothing.
func TestAllocGuardSnapshotInto(t *testing.T) {
	topo := miniTopo(t, GSLFree)
	var s *Snapshot
	for i := 0; i < 50; i++ {
		s = topo.SnapshotInto(float64(i), s)
	}
	i := 0
	checktest.AllocGuard(t, "Topology.SnapshotInto", 0, 0, func() {
		s = topo.SnapshotInto(float64(i%50), s)
		i++
	})
}

// TestAllocGuardPooledSweep pins the primitives the from-scratch sweep is
// built from: table buffers cycle through the pool, Dijkstra scratch is
// caller-owned, and the release returns every arena, so the steady-state
// sweep stays allocation-free.
func TestAllocGuardPooledSweep(t *testing.T) {
	topo := miniTopo(t, GSLFree)
	snap := topo.Snapshot(0)
	var pool TablePool
	var sc StrategyScratch
	checktest.AllocGuard(t, "TablePool sweep", 0, 1, func() {
		ft := pool.Empty(snap.T, topo.NumNodes(), topo.NumGS())
		for gs := 0; gs < topo.NumGS(); gs++ {
			sc.Dist, sc.Prev = snap.FromGSScratch(gs, sc.Dist, sc.Prev, &sc.Dijkstra)
			ft.SetDestination(gs, sc.Prev)
		}
		ft.Release()
	})
}

// TestAllocGuardShortestPathPooled pins the from-scratch sweep in its
// pooled, partial form: with the table pool and the Dijkstra scratch kept by
// the caller, a sweep allocates nothing once the release cycle returns each
// table to the pool.
func TestAllocGuardShortestPathPooled(t *testing.T) {
	topo := miniTopo(t, GSLFree)
	snap := topo.Snapshot(0)
	var pool TablePool
	var sc StrategyScratch
	active := []int{0, 1, 2, 3}
	checktest.AllocGuard(t, "Snapshot.ForwardingTableFor", 0, 1, func() {
		snap.ForwardingTableFor(active, &pool, &sc).Release()
	})
}

// TestAllocGuardIncrementalStep pins the incremental engine's per-instant
// repair. Step's class is amortized, not zero: as the constellation drifts
// into visibility configurations the run has not seen, delta scratch and
// repair arenas may still grow occasionally, so the budget allows a small
// residue per step rather than none.
func TestAllocGuardIncrementalStep(t *testing.T) {
	topo := miniTopo(t, GSLFree)
	eng := NewIncrementalEngine(topo, nil)
	at := 0.0
	step := func() {
		eng.Step(at, nil).Release()
		at += 0.1
	}
	checktest.AllocGuard(t, "IncrementalEngine.Step", 4, 20, step)
}

// TestEngineAllocatesArenasOnlyInFirstStep pins the engine's allocation
// lifecycle on the benchmark's shape (K1, 100 cities, 100 ms): the first Step
// sizes every arena — both snapshot buffers, both CSR mirrors, the repair
// scratch (IncrementalEngine.prime) — so the ten instants after it, which
// used to allocate over a megabyte between them, allocate next to nothing. A
// run's timed region opens somewhere in those instants, at the scheduler's
// whim; with this holding, its allocation reads the same wherever it opens.
func TestEngineAllocatesArenasOnlyInFirstStep(t *testing.T) {
	if check.Enabled {
		t.Skip("allocation budgets are a production-build contract; the hypatia_checks oracle allocates per tree")
	}
	c, err := constellation.Generate(constellation.Kuiper())
	if err != nil {
		t.Fatal(err)
	}
	topo, err := NewTopology(c, groundstation.Top100Cities(), GSLFree)
	if err != nil {
		t.Fatal(err)
	}
	var pool TablePool
	pool.Reserve(1, topo.NumNodes(), topo.NumGS())
	eng := NewIncrementalEngine(topo, &pool)
	eng.Step(0, nil).Release()

	// The counters are process-wide: at GOMAXPROCS=2 about one run in six
	// read ~5.5 KB in 7 mallocs that the engine (which starts no goroutine)
	// did not make. One P keeps the window to this goroutine's work, as
	// check.sh's alloc-guard stage does for every guard.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 1; i <= 10; i++ {
		eng.Step(float64(i)*0.1, nil).Release()
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 4<<10 {
		t.Errorf("steps 1-10 allocated %d B in %d mallocs, want at most 4 KiB: an arena is still sized after the first step",
			got, after.Mallocs-before.Mallocs)
	}
}
