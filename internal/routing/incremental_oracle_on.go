//go:build hypatia_checks

package routing

import (
	"sync/atomic"

	"hypatia/internal/check"
)

// oracleComparisons counts the destination columns the incremental engine
// has verified against the from-scratch oracle. check.sh asserts it is
// nonzero after the routing tests, so a refactor cannot silently stop
// exercising the incremental path.
var oracleComparisons atomic.Uint64

// OracleComparisons reports how many destination columns have been
// oracle-verified so far in this process (always 0 in unchecked builds).
func OracleComparisons() uint64 { return oracleComparisons.Load() }

// oracleCheck re-derives every requested destination column from scratch —
// fresh snapshot, fresh Dijkstra, none of the engine's cached state — and
// fails the run on any bitwise difference from the table the incremental
// path produced. This is the differential-oracle discipline:
// the retained from-scratch computation is the specification, the
// incremental path an optimization that must be indistinguishable from it.
func (e *IncrementalEngine) oracleCheck(tsec float64, active []int, ft *ForwardingTable) {
	snap := e.topo.Snapshot(tsec)
	n := e.topo.NumNodes()
	var dist []float64
	var prev []int32
	verify := func(gs int) {
		dist, prev = snap.FromGS(gs, dist, prev)
		for node := 0; node < n; node++ {
			got := ft.NextHop(node, gs)
			check.Assert(got == prev[node],
				"incremental oracle t=%v: node %d -> dst gs %d has next hop %d, from-scratch says %d",
				tsec, node, gs, got, prev[node])
		}
		oracleComparisons.Add(1)
	}
	if active == nil {
		for gs := 0; gs < e.topo.NumGS(); gs++ {
			verify(gs)
		}
		return
	}
	for _, gs := range active {
		verify(gs)
	}
}
