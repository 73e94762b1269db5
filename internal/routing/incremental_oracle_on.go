//go:build hypatia_checks

package routing

import (
	"sync/atomic"

	"hypatia/internal/check"
)

// oracleComparisons counts the trees the incremental engine has verified
// against the from-scratch oracle. check.sh asserts it is nonzero after the
// routing tests, so a refactor cannot silently stop exercising the
// incremental path.
var oracleComparisons atomic.Uint64

// OracleComparisons reports how many trees have been oracle-verified so far
// in this process (always 0 in unchecked builds).
func OracleComparisons() uint64 { return oracleComparisons.Load() }

// oracleState is the oracle's own from-scratch snapshot of the instant being
// verified and its Dijkstra arrays — none of the engine's cached state.
type oracleState struct {
	snap *Snapshot
	dist []float64
	prev []int32
}

// oracleCheck re-derives the tree rooted at gs from scratch — fresh
// snapshot, fresh Dijkstra — and fails the run on any bitwise difference, in
// distance or predecessor, from the tree the engine just produced. This is
// the differential-oracle discipline: the retained from-scratch computation
// is the specification, the incremental path an optimization that must be
// indistinguishable from it. A forwarding-table column is a copy of prev
// and an analysis reads dist and walks prev, so both of Trees' clients are
// covered here.
func (e *IncrementalEngine) oracleCheck(tsec float64, gs int) {
	o := &e.oracle
	if o.snap == nil || o.snap.T != tsec {
		o.snap = e.topo.SnapshotInto(tsec, o.snap)
	}
	o.dist, o.prev = o.snap.FromGS(gs, o.dist, o.prev)
	for node := range o.dist {
		if e.dist[node] != o.dist[node] || e.prev[node] != o.prev[node] {
			check.Failf("incremental oracle t=%v root gs %d: node %d has (dist %v, prev %d), from-scratch says (%v, %d)",
				tsec, gs, node, e.dist[node], e.prev[node], o.dist[node], o.prev[node])
		}
	}
	oracleComparisons.Add(1)
}
