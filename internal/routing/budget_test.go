//go:build !hypatia_checks

package routing

import (
	"testing"

	"hypatia/internal/check/checktest"
)

// The benchmark budgets: each guard runs its Benchmark*'s own setup and holds
// the region the benchmark times, over 5 ops as -benchtime 5x reads it, to an
// allocation budget with headroom over what it measures, so only a lost
// reuse path or a new per-op allocation trips it. Budgets are a
// production-build contract (see checktest), so this file is left out of the
// hypatia_checks build rather than paying the K1 setup only to skip.

// TestAllocGuardBenchSnapshotInto holds BenchmarkSnapshotInto to 8 allocs
// per snapshot after its 200-instant warm-up (it measures 0).
func TestAllocGuardBenchSnapshotInto(t *testing.T) {
	checktest.AllocBudget(t, "BenchmarkSnapshotInto", 8, 5, warmSnapshotInto(t))
}

// TestAllocGuardBenchForwardingTableFull holds BenchmarkForwardingTableFull
// to 16 allocs per sweep (it measures 7: the fresh table and the Dijkstra
// arenas its 100 trees share).
func TestAllocGuardBenchForwardingTableFull(t *testing.T) {
	checktest.AllocBudget(t, "BenchmarkForwardingTableFull", 16, 5, fullTableSweep(t))
}
