// Ablation benchmarks for the design choices DESIGN.md calls out: the
// routing-computation strategy, GSL attachment policy, forwarding
// granularity, and multi-path diversity. Package-level micro-ablations
// (Floyd-Warshall vs Dijkstra, two-body vs J2) live next to their packages
// under internal/.
package hypatia

import (
	"testing"

	"hypatia/internal/experiments"
)

func BenchmarkAblationMultipathDiversity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		stats, rep, err := experiments.AblationMultipath(4, benchScale().Pairs, 0)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + rep.String())
			for _, st := range stats {
				if len(st.KthStretch) > 1 {
					b.ReportMetric(st.KthStretch[1], st.Name+"_2nd_path_stretch")
				}
			}
		}
	}
}

func BenchmarkAblationGSLPolicy(b *testing.B) {
	scale := benchScale()
	for i := 0; i < b.N; i++ {
		stats, rep, err := experiments.AblationGSLPolicy(scale.Pairs, scale.Duration, 5)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + rep.String())
			for _, st := range stats {
				b.ReportMetric(st.MedianRTT*1e3, st.Policy+"_median_rtt_ms")
			}
		}
	}
}
