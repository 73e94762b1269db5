package analysis

import (
	"testing"

	"hypatia/internal/constellation"
)

// BenchmarkAnalyzePairsS1 measures the stepped analysis in steady state on
// the benchmark's analysis_s1_pairs shape: Starlink S1, the paper's 100
// cities, all 4 950 pairs, 8 consecutive 100 ms steps per op. Time keeps
// advancing across ops, so every measured step is delta snapshot + 99
// repaired trees + 4 950 predecessor walks folded into PairStats.
// TestAllocGuardBenchAnalyzePairsS1 holds it to its allocation budget.
func BenchmarkAnalyzePairsS1(b *testing.B) {
	sw := warmSweep(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		advanceSteps(sw)
	}
}

// warmSweep primes the S1 sweep with 17 steps (the first pays a full
// visibility scan and a from-scratch Dijkstra per source), folding every
// pair into PairStats as AnalyzePairs does. Its split has GOMAXPROCS
// workers, and is closed when the test or benchmark ends. The sweep's
// duration outlasts any op count, so every measured step names a next one
// for the split to build while its trees run, as inside a run.
func warmSweep(tb testing.TB) *sweep {
	sw, err := newSweep(paperTopo(tb, constellation.Starlink()), Config{Duration: 3600})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(sw.split.Close)
	stats := make([]PairStats, len(sw.pairs))
	sw.visit = func(_, _, i int, dist float64, hops int, changed bool) { stats[i].observe(dist, hops, changed) }
	for sw.step = 0; sw.step < 17; sw.step++ {
		sw.advance()
	}
	return sw
}

// advanceSteps is one BenchmarkAnalyzePairsS1 op: the next 8 steps.
func advanceSteps(sw *sweep) {
	for range 8 {
		sw.advance()
		sw.step++
	}
}
