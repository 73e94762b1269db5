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

// oracleSnapshot is the oracle's own from-scratch snapshot of the instant
// being verified — none of the engine's cached state. Advance builds it, and
// every worker's oracleCheck only reads it.
type oracleSnapshot struct {
	snap *Snapshot
}

// oracleScratch is one worker's oracle Dijkstra arrays.
type oracleScratch struct {
	dist []float64
	prev []int32
}

// oracleAdvance builds the oracle's snapshot of the instant at tsec.
func (e *IncrementalEngine) oracleAdvance(tsec float64) {
	e.oracle.snap = e.topo.SnapshotInto(tsec, e.oracle.snap)
}

// oracleCheck re-derives the tree rooted at gs from scratch — the oracle's
// snapshot, a fresh Dijkstra — and fails the run on any bitwise difference,
// in distance or predecessor, from the tree the engine just solved into sc.
// This is the differential-oracle discipline: the retained from-scratch
// computation is the specification, the incremental path an optimization
// that must be indistinguishable from it. A forwarding-table column is a
// copy of prev and an analysis reads dist and walks prev, so both of the
// engine's clients are covered here.
func (e *IncrementalEngine) oracleCheck(sc *TreeScratch, gs int) {
	o := &sc.oracle
	o.dist, o.prev = e.oracle.snap.FromGS(gs, o.dist, o.prev)
	for node := range o.dist {
		if sc.dist[node] != o.dist[node] || sc.prev[node] != o.prev[node] {
			check.Failf("incremental oracle t=%v root gs %d: node %d has (dist %v, prev %d), from-scratch says (%v, %d)",
				e.tsec, gs, node, sc.dist[node], sc.prev[node], o.dist[node], o.prev[node])
		}
	}
	oracleComparisons.Add(1)
}
