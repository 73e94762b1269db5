package analysis

import (
	"testing"

	"hypatia/internal/constellation"
)

// analyzeStepsPerOp is the number of 100 ms steps in one benchmark op;
// scripts/bench.sh divides by it to report ns_per_step.
const analyzeStepsPerOp = 8

// BenchmarkAnalyzePairsS1 measures the stepped analysis in steady state on
// the benchmark's analysis_s1_pairs shape: Starlink S1, the paper's 100
// cities, all 4 950 pairs, 8 consecutive 100 ms steps per op. The sweep is
// primed outside the timer (the first step pays a full visibility scan and a
// from-scratch Dijkstra per source) and time keeps advancing across ops, so
// every measured step is delta snapshot + 99 repaired trees + 4 950
// predecessor walks folded into PairStats.
func BenchmarkAnalyzePairsS1(b *testing.B) {
	sw, err := newSweep(paperTopo(b, constellation.Starlink()), Config{Duration: 1})
	if err != nil {
		b.Fatal(err)
	}
	stats := make([]PairStats, len(sw.pairs))
	sw.visit = func(_, i int, dist float64, hops int, changed bool) { stats[i].observe(dist, hops, changed) }
	for sw.step = 0; sw.step < 17; sw.step++ {
		sw.advance()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < analyzeStepsPerOp; j++ {
			sw.advance()
			sw.step++
		}
	}
}
